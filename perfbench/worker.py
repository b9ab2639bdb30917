"""One pass of a workload in a fresh process, so phardy's caches start cold.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE FULL [SPANS_PATH]

TRACE=1 wraps the layer functions and returns per-layer metrics (and writes
the spans to SPANS_PATH); FULL=1 returns every job's output for the
reference checks, otherwise only a digest of it.  WORKLOAD=setup returns
right after the import.  The result is one JSON object on stdout, carrying
the monotonic time at which the process could issue its first job.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import phardy.cli  # noqa: E402  (timed as part of set-up)

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ru_maxrss is not used: Linux carries the parent's high-water mark over
    the fork and exec, so it would report the runner's memory instead."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(workload: str, seed: int, trace: bool, full: bool,
             spans_path: str | None) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import jobs_for
    import phardy
    from phardy import (laplacian, numerics, proof_machinery, series, verify,
                        weights)

    jobs = jobs_for(workload, seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install({"numerics": numerics, "weights": weights,
                        "laplacian": laplacian, "series": series,
                        "proof_machinery": proof_machinery, "verify": verify,
                        "cli": phardy.cli, "phardy": phardy},
                       weights.WeightTable)
    results = []
    output_bytes = 0
    for index, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer:
            tracer.job = index
            root = tracer.open("cli.main")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = phardy.cli.main(list(job.argv))
        except SystemExit as exc:         # argparse rejected the command line
            code = exc.code
        except Exception:                 # the job failed; the pass goes on
            code = None
            error = traceback.format_exc(limit=-2)
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(root)
        text = out.getvalue()
        output_bytes += len(text.encode())
        record = {"time_s": elapsed, "exit": code, "error": error,
                  "stderr": err.getvalue()[-500:],
                  "digest": hashlib.sha256(text.encode()).hexdigest()}
        if full:
            record["stdout"] = text
        results.append(record)
    result = {"ready": READY, "rss_mb": peak_rss_mb(), "jobs": results}
    if tracer:
        tracer.uninstall()
        result["layers"], result["trace_gap"] = layer_metrics(tracer, output_bytes)
        if spans_path:
            tracer.dump(spans_path)
    return result


def main(argv) -> int:
    workload, seed, trace, full = argv[:4]
    if not Path(phardy.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"phardy was imported from {phardy.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if workload == "setup":
        result = {"ready": READY}
    else:
        result = run_pass(workload, int(seed), trace == "1", full == "1",
                          argv[4] if len(argv) > 4 else None)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
