"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload through ``run.py`` with and without tracing, checks that
each metric named in BENCHMARK.json is reported with its unit, and that a
corrupted CLI output is counted as a failed job.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    jobs = workloads.build("reduce-check", 3, str(tmp_path), toy=True)
    real = worker.call_cli

    def corrupt(argv):
        code, text = real(argv)
        if argv[0] == "check" and "--assembled" not in argv and argv[-1] == "commuting":
            text = text.replace('"commuting": true', '"commuting": false')
        return code, text

    monkeypatch.setattr(worker, "call_cli", corrupt)
    times, failures, _, _ = worker.measure(jobs, 0.0)
    corrupted = [j.name for j in jobs if j.name.endswith(".comm.check")]
    assert len(corrupted) == 2
    assert sorted(failures) == sorted(f"{r}:{name}" for r in range(1, len(times) + 1) for name in corrupted)


def test_wrong_exit_code_counts_as_failed(tmp_path):
    jobs = workloads.build("traverse", 3, str(tmp_path), toy=True)
    # the empty-witness path must be refused; expecting success is a failure
    jobs = [workloads.Job(j.name, j.argv, 0, j.check) if j.name == "gscon.empty" else j for j in jobs]
    _, failures, _ = worker.run_round(jobs)
    assert list(failures) == ["gscon.empty"]
    assert failures["gscon.empty"].startswith("exit code 1")


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traverse", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
