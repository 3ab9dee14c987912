"""One benchmark workload in one process.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only`` it
imports the package, writes the seeded inputs and exits, so the launcher can
time set-up several times.  Otherwise it then runs rounds of the workload's
jobs through ``pinq.cli.main`` in a closed loop (one job at a time, each
started when the previous one has been checked) and prints one JSON line.

The host's speed drifts by up to a factor of two over seconds and minutes, for
interpreted and BLAS code alike, so a fixed amount of work takes a different
wall time from one run to the next.  The measured rounds therefore also time
a short fixed kernel (``reference_pass``) after every job, for PACE_SHARE of
the job's time, so the passes sample the host all through the run.  The
run's pace is the mean pass time over REF_S, and the launcher divides the
run's wall times by it: that gives the time the work would take at the pace
at which a pass takes REF_S.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import pinq.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 5
# About the mean time of a reference pass on a 2-vCPU shared VM (Python
# 3.11, OpenBLAS on one thread), so reported times stay close to plain wall
# times there.  It only sets their scale; any fixed value would do.
REF_S = 0.003
PACE_SHARE = 0.05

_REF_RNG = np.random.default_rng(0)
_REF_SYM = _REF_RNG.normal(size=(96, 96))
_REF_SYM = _REF_SYM + _REF_SYM.T
_REF_CPLX = _REF_RNG.normal(size=(160, 160)) + 1j * _REF_RNG.normal(size=(160, 160))
_REF_VEC = _REF_RNG.normal(size=1 << 18)


def reference_pass() -> float:
    """Time one pass of a fixed kernel.

    It gives about equal time to the kinds of work the CLI jobs mix:
    dict-heavy interpreted code, a small dense eigensolve, a complex matrix
    product and sweeps over a 2 MiB vector.  When the host slows down,
    interpreted code alone slows down more than the jobs do and the BLAS
    parts alone about as much or less, so the kernel mixes them.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(4000):
        k = i % 61
        acc[k] = acc.get(k, 0.0) + i * 0.5
    np.linalg.eigvalsh(_REF_SYM)
    _REF_CPLX @ _REF_CPLX
    for _ in range(4):
        float(np.dot(_REF_VEC, _REF_VEC))
    return time.perf_counter() - t0


def call_cli(argv):
    """Run one CLI job in-process; return (exit code, payload text or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pinq.cli.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    if not lines:
        return code, None
    return code, json.dumps(json.loads(lines[-1])["payload"], sort_keys=True)


def run_job(job, payloads, texts):
    """Run and check one job; return None, or why it failed."""
    try:
        code, text = call_cli(job.argv)
    except Exception as exc:  # an escaped traceback is a failed job, not a failed run
        texts[job.name] = None
        return f"raised {type(exc).__name__}: {exc}"
    texts[job.name] = text
    if code != job.expect_exit:
        return f"exit code {code}, expected {job.expect_exit}"
    if text is None:
        return "no run report"
    payloads[job.name] = json.loads(text)
    if job.check is not None:
        try:
            job.check(payloads)
        except (workloads.CheckFailed, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return None


def run_round(jobs, tracer=None, job_s=None, passes=None):
    """One pass over every job.  Returns (seconds, failures, payload texts).

    With a ``passes`` list, reference passes run after each job until they
    add up to PACE_SHARE of its time (at least one), and their times are
    appended to the list; they are not part of the round's seconds.
    """
    payloads, texts, failures = {}, {}, {}
    wall = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        if tracer is None:
            why = run_job(job, payloads, texts)
        else:
            tracer.job = job.name
            why = tracer.span("bench.job", run_job, job, payloads, texts)
        dt = time.perf_counter() - t0
        wall += dt
        if job_s is not None:
            job_s.setdefault(job.name, []).append(dt)
        if why is not None:
            failures[job.name] = why
        if passes is not None:
            spent = 0.0
            while True:
                passes.append(reference_pass())
                spent += passes[-1]
                if spent >= PACE_SHARE * dt:
                    break
    return wall, failures, texts


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _unstable(texts, reference, fails, why):
    """Count a job whose payload differs from the reference round's as failed."""
    for name, text in texts.items():
        if text != reference[name]:
            fails.setdefault(name, why)
    return fails


def measure(jobs, seconds):
    """Untraced rounds for ``seconds`` (at least MIN_ROUNDS).

    Returns (round times, failures by "round:job", per-job times, reference
    pass times).
    """
    times, failures, reference, job_s, passes = [], {}, None, {}, []
    start = time.perf_counter()
    while True:
        dt, fails, texts = run_round(jobs, job_s=job_s, passes=passes)
        times.append(dt)
        reference = reference or texts
        _unstable(texts, reference, fails, "payload differs from the first round")
        failures.update({f"{len(times)}:{k}": v for k, v in fails.items()})
        if len(times) >= MIN_ROUNDS and time.perf_counter() - start + dt > seconds:
            break
    return times, failures, job_s, passes


def measure_traced(jobs, seconds):
    """Alternate traced and untraced rounds after an untraced warm-up round.

    Every payload must match the warm-up round's byte for byte.  Returns
    (untraced round times, traced round times, failures, tracer).
    """
    tracer = tracing.Tracer()
    start = time.perf_counter()
    _, fails, reference = run_round(jobs)
    failures = {f"0:{k}": v for k, v in fails.items()}
    plain, traced = [], []
    while True:
        with tracer:
            dt, fails, texts = run_round(jobs, tracer)
        traced.append(dt)
        _unstable(texts, reference, fails, "traced payload differs from the untraced one")
        failures.update({f"{len(traced)}t:{k}": v for k, v in fails.items()})
        dt, fails, texts = run_round(jobs)
        plain.append(dt)
        _unstable(texts, reference, fails, "payload differs from the first round")
        failures.update({f"{len(plain)}:{k}": v for k, v in fails.items()})
        if time.perf_counter() - start + traced[-1] + dt > seconds:
            break
    return plain, traced, failures, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed, args.workdir, toy=args.toy)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "jobs": len(jobs), "env": environment()}
    if args.trace:
        plain, traced, failures, tracer = measure_traced(jobs, args.seconds)
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        tracer.write_spans(os.path.join(args.workdir, "spans.jsonl"))
        result.update(rounds=1 + len(plain) + len(traced), round_s=plain, traced_round_s=traced,
                      layers=layers)
    else:
        times, failures, job_s, passes = measure(jobs, args.seconds)
        result.update(rounds=len(times), round_s=times, job_s=job_s, reference_pass_s=passes,
                      pace=statistics.fmean(passes) / REF_S)
    result["failures"] = failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
