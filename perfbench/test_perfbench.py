"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that the pinned pool still matches the code (no job fails on it),
that a traced run gives identical counts when repeated on one seed, that the
pool generator still makes the configs the digests were pinned for, and that
the benchmark refuses to run where there is no qcff to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import make_pool
import worker
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL = json.loads((HERE / "pool.json").read_text())
QCFF = worker.setup("selfcheck")


def small_jobs(workload: str, seed: int) -> list[dict]:
    jobs = worker.job_list(POOL, workload, seed, 1)
    return jobs[:4]


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_default_seed_first_round_passes(workload):
    plain, _ = worker.run_jobs(QCFF, worker.job_list(POOL, workload, 0, 1), Speedometer())
    assert [r.failure for r in plain] == [None] * len(plain)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_counts_repeat_exactly(workload):
    def counts():
        out, _ = worker.trace(QCFF, small_jobs(workload, 3), workload)
        assert out["failed"] == 0
        return {name: value for name, (value, unit) in out["metrics"].items()
                if unit in ("count", "bytes", "ratio")}

    first = counts()
    assert first["kernel.calls"] > 0 and first["poly.calls"] > 0
    assert counts() == first


def test_traced_layers_cover_the_job():
    out, tracer = worker.trace(QCFF, small_jobs("tower_report", 5), "tower_report")
    shares = [value for name, (value, _) in out["metrics"].items()
              if name.startswith("self.") and name.endswith(".share")]
    assert sum(shares) == pytest.approx(100.0, abs=1e-6)
    names = {span[0] for span in tracer.spans}
    assert {"bench.job", "report.run_report", "factor.poly_factor"} <= names
    assert all(span[3] is None for span in tracer.spans if span[0] == "bench.job")


def test_same_seed_same_jobs_other_seed_other_jobs():
    a = worker.job_list(POOL, "tower_report", 7, 3)
    assert a == worker.job_list(POOL, "tower_report", 7, 3)
    assert a != worker.job_list(POOL, "tower_report", 8, 3)


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(100)]
    tail_s = worker.summary(times)["job_tail_s"]
    assert tail_s == 89.0 and sum(t > tail_s for t in times) == 10


@pytest.mark.parametrize("workload", ["formal_sum", "tower_report"])
def test_generator_reproduces_pinned_configs(workload):
    for c, entry in enumerate(POOL[workload]):
        for i in (0, 1):
            assert make_pool.make_config(workload, c, i) == entry["jobs"][i]["config"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "selfcheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
