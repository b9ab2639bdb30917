#!/usr/bin/env python3
"""SHA-256 of the stdout of every benchmark job, for output checks.

Usage: python3 tools/job_digests.py ROOT WORKLOAD SEEDS
       python3 tools/job_digests.py --against PARENT ROOT WORKLOAD SEEDS

ROOT is a phardy checkout, WORKLOAD one of the benchmark's workloads and
SEEDS a list such as ``0-3`` or ``1,5,9``.  The job lists come from
ROOT/perfbench/workloads.py, which is imported and never written.  Each
seed runs as one pass in a fresh process, as the benchmark runs it: every
job through ``phardy.cli.main`` from ROOT/src, one after another, so the
caches start cold and are shared by the jobs of the pass.  One line is
printed per job:

    seed job exit sha256

where exit is the exit code, or ``error`` for an uncaught exception.  Two
checkouts give the same outputs on those jobs exactly when the outputs of

    python3 tools/job_digests.py PARENT variational 0-3 > parent.txt
    python3 tools/job_digests.py .      variational 0-3 > change.txt
    diff parent.txt change.txt

are equal.  ``--against PARENT`` makes that check in one command: it runs
the passes of both checkouts seed by seed, alternating which goes first
(PARENT on the first seed listed), and prints only the jobs whose exit code or digest
differ (or that only one checkout runs), one line each:

    seed job PARENT-exit PARENT-sha256 ROOT-exit ROOT-sha256

with ``-`` for a job that a checkout does not run, and a count of the jobs
compared on stderr.  It exits 1 if any job differs and 0 if none does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_pass(root: Path, workload: str, seed: int) -> None:
    """Run one pass in this process and print its lines."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import phardy.cli
    from workloads import jobs_for

    if not Path(phardy.cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"phardy was imported from {phardy.cli.__file__}, "
                         f"not from {root / 'src'}")
    for job in jobs_for(workload, seed):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = phardy.cli.main(list(job.argv))
        except SystemExit as exc:         # argparse rejected the command line
            code = exc.code
        except Exception:                 # the job failed; the pass goes on
            code = "error"
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{seed} {job.name} {code} {digest}", flush=True)


def pass_digests(root: Path, workload: str, seed: int) -> dict:
    """{job: (exit, sha256)} of one pass of root, run in a fresh process."""
    result = subprocess.run([sys.executable, __file__, "--pass", str(root),
                             workload, str(seed)],
                            capture_output=True, text=True, check=True)
    lines = (line.split() for line in result.stdout.splitlines())
    return {job: (code, digest) for _, job, code, digest in lines}


def compare(parent: Path, root: Path, workload: str, seeds: list) -> int:
    """Print the jobs whose outputs differ between two checkouts."""
    compared = differ = 0
    for i, seed in enumerate(seeds):
        order = (parent, root) if i % 2 == 0 else (root, parent)
        runs = {checkout: pass_digests(checkout, workload, seed)
                for checkout in order}
        before, after = runs[parent], runs[root]
        jobs = list(before) + [job for job in after if job not in before]
        compared += len(jobs)
        for job in jobs:
            if before.get(job) != after.get(job):
                differ += 1
                print(seed, job, *before.get(job, ("-", "-")),
                      *after.get(job, ("-", "-")), flush=True)
    print(f"{workload}: {compared} jobs compared, {differ} differ",
          file=sys.stderr)
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "--pass":
        run_pass(Path(argv[1]).resolve(), argv[2], int(argv[3]))
        return 0
    if len(argv) == 5 and argv[0] == "--against":
        return compare(Path(argv[1]).resolve(), Path(argv[2]).resolve(),
                       argv[3], parse_seeds(argv[4]))
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root, workload, seeds = Path(argv[0]).resolve(), argv[1], argv[2]
    for seed in parse_seeds(seeds):
        # A fresh process per pass, so no cache carries over between seeds.
        result = subprocess.run([sys.executable, __file__, "--pass",
                                 str(root), workload, str(seed)])
        if result.returncode:
            return result.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
