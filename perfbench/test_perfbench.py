"""Self-tests of the benchmark: seeded job lists, exact counts, failure mode.

Run with: python3 -m pytest perfbench/test_perfbench.py -q   (about 90 s)
"""

import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
from workloads import KNOWN_FAILURES, WORKLOADS, jobs_for


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_varies_parameters_not_classes(workload):
    first, again, other = (jobs_for(workload, 1), jobs_for(workload, 1),
                           jobs_for(workload, 2))
    assert first == again
    assert [job.argv for job in first] != [job.argv for job in other]
    assert Counter(job.cls for job in first) == Counter(job.cls for job in other)
    assert [job.name for job in first] == [job.name for job in other]
    assert len({job.name for job in first}) == len(first)


def test_known_failures_are_jobs():
    names = {job.name for job in jobs_for("tables", 1)}
    assert set(KNOWN_FAILURES) <= names


@pytest.mark.parametrize("n_jobs, pct", [(44, 77), (48, 79), (55, 81), (20, 50)])
def test_tail_percentile_leaves_ten_jobs_beyond(n_jobs, pct):
    assert run.tail_percentile(n_jobs) == pct


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    a = run.launch(workload, "3", "1", "0")["layers"]
    b = run.launch(workload, "3", "1", "0")["layers"]
    exact = [name for name in a
             if name.endswith(".calls") or name in run.EXACT_LAYER_METRICS]
    assert {name: a[name] for name in exact} == {name: b[name] for name in exact}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
