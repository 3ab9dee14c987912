"""pinq benchmark: drive the ``pinq`` CLI on seeded inputs and report metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (the package is imported from ``src/``).  Each
workload runs in a worker process of its own, with BLAS pinned to one thread,
so its peak RSS is its own.  Set-up (interpreter start, package import, input
generation) is timed in SETUP_SAMPLES separate processes and reported as the
median.  Reported times are divided by the host's pace over the measured run,
which takes out the drift of a shared host's speed (see worker.py); the plain
wall times go to the human-readable lines and the result file.  With
``--trace 0`` the last output line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  Scratch
files and full results go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5  # the measuring worker plus four set-up-only processes
THREADS = "1"
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _worker(args, workload, workdir, extra=()):
    """Start a worker, wait for it, return (spawn time, its JSON result)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    if args.toy:
        cmd.append("--toy")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc


def run(args, workload) -> dict:
    base = os.path.join(ROOT, ".perfbench", workload)
    shutil.rmtree(base, ignore_errors=True)
    setup = []
    for i in range(SETUP_SAMPLES - 1):
        workdir = os.path.join(base, f"setup{i}")
        spawned, res = _worker(args, workload, workdir, ("--setup-only",))
        setup.append(res["ready"] - spawned)
        shutil.rmtree(workdir)
    spawned, res = _worker(args, workload, os.path.join(base, "run"))
    setup.append(res["ready"] - spawned)

    rounds, jobs = res["rounds"], res["jobs"]
    attempted = rounds * jobs
    failed = len(res["failures"])
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(res["layers"].items())}
    else:
        metrics = {
            "wall_s": {"value": statistics.fmean(res["round_s"]) / res["pace"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup) / res["pace"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    record = dict(res, workload=workload, seed=args.seed, trace=args.trace,
                  setup_s=setup, attempted=attempted, failed=failed, metrics=metrics)
    with open(os.path.join(base, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pinq", "cli.py")):
        print(f"perfbench: no pinq sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    records = []
    for name in names:
        try:
            rec = run(args, name)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        records.append(rec)
        print(f"{name}: env " + json.dumps(rec["env"], sort_keys=True))
        for job, why in sorted(rec["failures"].items()):
            print(f"{name}: FAILED {job}: {why}")
        frac = rec["failed"] / rec["attempted"]
        print(f"{name}: failed_frac {frac:.6g} ratio ({rec['failed']}/{rec['attempted']} jobs, "
              f"{rec['rounds']} rounds); "
              + "; ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in rec["metrics"].items()))
        walls = sorted(rec["round_s"])
        print(f"{name}: plain wall time of a round: mean {statistics.fmean(walls):.6g} s, "
              f"median {statistics.median(walls):.6g} s, max {walls[-1]:.6g} s over "
              f"{len(walls)} rounds; plain set-up median "
              f"{statistics.median(rec['setup_s']):.6g} s"
              + (f"; host pace {rec['pace']:.6g}" if "pace" in rec else ""))
    metrics = records[0]["metrics"] if len(records) == 1 else {
        f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
