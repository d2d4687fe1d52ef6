"""Benchmark for the semigeom CLI: seeded workloads, time to verdict,
oracle-checked outputs, and a traced per-layer run.

    python3 perfbench/run.py --workload rewrite-balls --seed 1 --seconds 24 --trace 0

Run from the repository root.  The workload's jobs are generated from the
seed (see workloads.py) and run in this process as ``semigeom.cli.main(argv)``
with stdout captured: a closed loop with one client, one job at a time, no
threads or pools.  Passes over the fixed job list repeat until ``--seconds``
have elapsed.  Afterwards every job's stdout is checked against the oracles
in oracles.py, which are computed only then, outside the timed passes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: in a fresh interpreter, import semigeom, build the CLI
  parser and write the workload's input files (coldstart.py); done
  ``SETUP_REPEATS`` times, spread between the passes, median.  The job
  list and the file contents are generated once beforehand, untimed.
* ``verdict_p50_ms``, ``verdict_p90_ms``: per-job time to verdict, one CLI
  call each, including its own monoid or space load.  Each job's time is
  its fastest over the passes; the percentiles are taken over the jobs of
  the list (100 or more, so 10 or more lie beyond p90).
* ``pass_s``: wall time of one pass over the job list, taken as the sum of
  the jobs' fastest times.

  On a shared host, other tenants slow this process down by up to 2x for
  tens of seconds at a time.  That noise only ever adds time, and a single
  job escapes it far more often than a whole pass does, so each job's
  fastest run is the estimate it disturbs least.
* ``peak_rss_mb``: ``ru_maxrss`` of this process, read before the oracles run.
* ``ok_frac``: job runs whose output agrees with its oracle, over job runs
  attempted.  A job fails when it raises, exits 2, times out or contradicts
  its oracle; ``failed_frac = 1 - ok_frac`` is printed on the summary line.

``--trace 1`` runs untraced passes for ``--seconds``, then traced passes for
``--seconds`` more, and reports the per-layer metrics of tracing.py, each
job taken from its fastest traced run as ``pass_s`` is, plus
``trace.overhead``: ``pass_s`` of the traced passes over ``pass_s`` of the
untraced ones.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is false when a job raised, timed
out, exited 2, printed different bytes in different passes, or contradicted
its oracle in a way that is not one of the known open defects listed in
oracles.KNOWN_DEFECTS; known defects still count in ``failed``.  Per-job
results (argv, exit code, time, sha256 of stdout, oracle verdict) and, when
traced, the spans are written to ``.bench_results/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
JOB_TIMEOUT_S = 60


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cold_setup(files):
    """Seconds of one set-up in a fresh interpreter (see coldstart.py)."""
    blob = b"\0".join(part.encode() for item in files.items() for part in item)
    done = subprocess.run([sys.executable, os.path.join(HERE, "coldstart.py"), SRC],
                          input=blob, capture_output=True, timeout=JOB_TIMEOUT_S,
                          check=True)
    return float(done.stdout)


def run_job(cli, argv):
    """(exit code or failure label, seconds, stdout) of one CLI call."""
    out = io.StringIO()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except JobTimeout:
        code = "timeout"
    except Exception as e:  # a traceback from the program is a failed job
        code = "raised %s: %s" % (type(e).__name__, e)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, time.perf_counter() - t0, out.getvalue()


def run_pass(cli, jobs, first=None, tracer=None):
    """One pass over the job list: (pass seconds, per-job records).

    A record keeps its stdout only when it differs from the first pass's,
    so later passes do not grow the memory being measured."""
    records = []
    t0 = time.perf_counter()
    for jid, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = jid
            sid = tracer.open("cli")
        code, dt, stdout = run_job(cli, job["argv"])
        if tracer is not None:
            tracer.close(sid)
            tracer.count("cli.stdout_bytes", len(stdout.encode()))
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if first is not None and first[jid]["sha256"] == digest:
            stdout = None
        records.append({"code": code, "s": dt, "sha256": digest, "stdout": stdout})
    return time.perf_counter() - t0, records


def verdicts(jobs, passes):
    """Check every distinct output of every job; returns per-job results."""
    checker = oracles.Checker()
    results = []
    for jid, job in enumerate(jobs):
        seen = {}
        runs = []
        for records in passes:
            rec = records[jid]
            key = (rec["code"], rec["sha256"])
            if key not in seen:
                if isinstance(rec["code"], str):
                    seen[key] = oracles.Contradiction("error", rec["code"])
                else:
                    seen[key] = checker.check(job["spec"], rec["stdout"], rec["code"])
            runs.append(seen[key])
        if len(seen) > 1:
            runs = [oracles.Contradiction("nondeterministic", "stdout differs between passes")
                    ] * len(runs)
        results.append(runs)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "semigeom")):
        print("error: %s has no semigeom package to benchmark" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _alarm)

    workdir = os.path.join(".bench_work", "%s-%d" % (args.workload, args.seed))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(".bench_work")


def fastest(passes, njobs):
    """Each job's fastest time over the passes."""
    return [min(recs[jid]["s"] for _, recs in passes) for jid in range(njobs)]


def measure(args, workdir):
    jobs, files = workloads.generate(args.workload, args.seed, workdir)
    os.makedirs(workdir, exist_ok=True)
    # the first set-up writes the files the jobs read; the others rewrite
    # them, spread between the passes so they sample the whole run
    setup_times = [cold_setup(files)]
    import semigeom.cli as cli

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cli, jobs, passes[0][1] if passes else None))
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(cold_setup(files))
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(cold_setup(files))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_s = fastest(passes, len(jobs))

    layers = None
    tracer = None
    if args.trace:
        traced, sums = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            t = tracing.Tracer()
            restore = tracing.install(t)
            try:
                traced.append(run_pass(cli, jobs, passes[0][1], t))
            finally:
                tracing.uninstall(restore)
            sums.append(tracing.job_sums(t))
            if tracer is None or traced[-1][0] < best:
                tracer, best = t, traced[-1][0]
        # every job's layers come from its fastest traced run
        chosen = []
        for jid in range(len(jobs)):
            k = min(range(len(traced)), key=lambda k: traced[k][1][jid]["s"])
            chosen.append(sums[k][jid])
        layers = tracing.layer_metrics(chosen)
        traced_s = sum(fastest(traced, len(jobs)))
        layers["trace.overhead"] = traced_s / sum(job_s)
        print("traced: pass_s %.6f s, self times of its spans sum to %.6f s"
              % (traced_s, sum(tracing.total_self_s(c) for c in chosen)))
        passes += traced

    outputs = [records for _s, records in passes]
    results = verdicts(jobs, outputs)
    attempted = sum(len(runs) for runs in results)
    failed = sum(1 for runs in results for r in runs if r is not None)
    correct = all(r is None or r.known for runs in results for r in runs)

    p50, p90 = percentile(job_s, 0.5), percentile(job_s, 0.9)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (sum(job_s), "s"),
        "verdict_p50_ms": (p50 * 1000, "ms"),
        "verdict_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    write_results(args, jobs, outputs, results, end_to_end, layers, tracer)

    print("workload %s seed %d: %d jobs x %d passes, %d failed (failed_frac %.4f)"
          % (args.workload, args.seed, len(jobs), len(passes), failed, failed / attempted))
    for name, (value, unit) in end_to_end.items():
        print("  %-16s %14.6f %s" % (name, value, unit))
    for jid, runs in enumerate(results):
        if runs[0] is not None:
            print("  job %d %s: %s %s" % (jid, " ".join(jobs[jid]["argv"][:3]),
                                          runs[0].kind, runs[0].message))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "overhead", "per_slot")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def write_results(args, jobs, outputs, results, end_to_end, layers, tracer):
    os.makedirs(".bench_results", exist_ok=True)
    path = os.path.join(".bench_results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "end_to_end": {k: v for k, (v, _u) in end_to_end.items()},
        "layers": layers,
        "jobs": [
            {"argv": job["argv"],
             "code": [recs[jid]["code"] for recs in outputs],
             "ms": [recs[jid]["s"] * 1000 for recs in outputs],
             "sha256": outputs[0][jid]["sha256"],
             "verdict": None if runs[0] is None else [runs[0].kind, runs[0].message]}
            for jid, (job, runs) in enumerate(zip(jobs, results))
        ],
        "spans": None if tracer is None else [s.as_list() for s in tracer.spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
