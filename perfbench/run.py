"""phardy benchmark: seeded CLI job lists, timed end to end, checked against
independent references, with an optional traced pass that times each layer.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 38 --trace 0

runs passes of the workload's job list, each in a fresh single-threaded
process, until the time is used, checks every output, prints each metric by
name and ends with one JSON line.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics instead.

Several runs, summarised (median, quartiles and count per metric):

    python3 perfbench/run.py --suite --workloads tables,proofs --seeds 1-10

Two summaries compared against the benchmark's bounds:

    python3 perfbench/run.py --compare base.json new.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_job
from workloads import KNOWN_FAILURES, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 1            # launches that only import phardy, per pass
WORKER_TIMEOUT_S = 150
TAIL_MIN_BEYOND = 10        # jobs that must lie beyond the tail percentile
# Bounds of the metrics BENCHMARK.json cannot carry because they are not
# reported on every workload (or are zero on most of them).
EXTRA_METRICS = {
    "fail_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "rayleigh_q_mean": {"unit": "ratio", "better": "lower", "bound": 0.01},
}
_THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


# Counts that must repeat exactly between passes and runs of one seed.
EXACT_LAYER_METRICS = (
    "numerics.bits_mean", "numerics.bits_max", "weights.points",
    "series.coeffs", "proof_machinery.grid_points", "proof_machinery.failures",
    "verify.rayleigh.iterations", "cli.output_bytes")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def launch(*args: str) -> dict:
    """Run one worker process to completion; return its result with the
    set-up time (launch to ready to issue a job)."""
    env = dict(os.environ, PYTHONHASHSEED="0", **_THREAD_ENV)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - start
    return result


def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile with at least TAIL_MIN_BEYOND jobs beyond it
    (nearest-rank), never below the median."""
    pct = 99
    while pct > 50 and n_jobs - math.ceil(pct * n_jobs / 100) < TAIL_MIN_BEYOND:
        pct -= 1
    return pct


def _nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def _pass_times(result) -> list:
    return [job["time_s"] for job in result["jobs"]]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Timed passes, then the reference checks; returns every metric."""
    if not (ROOT / "src" / "phardy" / "__init__.py").is_file():
        raise BenchError(f"no phardy sources under {ROOT / 'src'}")
    jobs = jobs_for(workload, seed)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    launch("setup", "0", "0", "0")            # compiles bytecode; not timed
    setups = []
    plain, traced = [], []
    start = time.monotonic()
    last = 0.0
    while (not plain or (trace and not traced)
           or time.monotonic() - start + last <= seconds):
        use_trace = trace and len(traced) < len(plain)
        began = time.monotonic()
        setups += [launch("setup", "0", "0", "0")["setup_s"]
                   for _ in range(SETUP_PROBES)]
        result = launch(workload, str(seed), "1" if use_trace else "0",
                        "0" if plain or use_trace else "1",
                        str(spans_path) if use_trace and not traced else "")
        last = time.monotonic() - began
        setups.append(result["setup_s"])
        (traced if use_trace else plain).append(result)

    # Reference checks, after every timed pass has ended.
    failures = {}
    first = plain[0]["jobs"]
    for job, rec in zip(jobs, first):
        reason = rec["error"] or check_job(job, rec["exit"], rec["stdout"], seed)
        if reason:
            stderr = rec["stderr"].strip()
            failures[job.name] = f"{reason} (stderr: {stderr})" if stderr else reason
    for result in plain[1:] + traced:
        for job, rec, ref in zip(jobs, result["jobs"], first):
            if rec["digest"] != ref["digest"] and job.name not in failures:
                failures[job.name] = "output differs between passes"
    unexpected = sorted(set(failures) - set(KNOWN_FAILURES))

    pct = tail_percentile(len(jobs))
    walls = [sum(_pass_times(r)) for r in plain]
    # each job's latency is its median over the passes
    latency = [statistics.median(times)
               for times in zip(*(_pass_times(r) for r in plain))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latency),
        "job_tail_s": _nearest_rank(latency, pct),
        "fail_frac": len(failures) / len(jobs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    quotients = [json.loads(rec["stdout"])["quotient"]
                 for job, rec in zip(jobs, first)
                 if job.cls == "rayleigh" and job.name not in failures]
    if quotients:
        metrics["rayleigh_q_mean"] = statistics.fmean(quotients)
    problems = [f"unexpected failure {name}: {failures[name]}"
                for name in unexpected]
    run = {"workload": workload, "seed": seed, "passes": len(plain),
           "traced_passes": len(traced), "jobs": len(jobs),
           "setup_samples": len(setups), "tail_pct": pct,
           "metrics": metrics, "failures": failures, "problems": problems}
    if trace:
        layers = [r["layers"] for r in traced]
        run["layers"] = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name.endswith(".calls") or name in EXACT_LAYER_METRICS:
                if any(v != values[0] for v in values):
                    problems.append(f"{name} differs between traced passes")
                run["layers"][name] = values[0]
            else:
                run["layers"][name] = statistics.median(values)
        run["layers"]["trace.overhead_frac"] = (
            statistics.median(sum(_pass_times(r)) for r in traced)
            / statistics.median(walls) - 1)
        run["trace_gap"] = max(r["trace_gap"] for r in traced)
        if run["trace_gap"] > 0.05:
            problems.append(f"layer self times miss the job time by "
                            f"{run['trace_gap']:.1%}")
        run["spans"] = str(spans_path.relative_to(ROOT))
    return run


def _units() -> dict:
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    units.update({name: spec["unit"] for name, spec in EXTRA_METRICS.items()})
    return units


def print_run(run: dict) -> None:
    units = _units()
    print(f"{run['workload']} seed {run['seed']}: {run['passes']} passes of "
          f"{run['jobs']} jobs, {run['traced_passes']} traced, "
          f"{run['setup_samples']} set-up samples")
    for name, value in run["metrics"].items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{run['tail_pct']} of {run['jobs']} jobs)"
        elif name == "fail_frac":
            note = f"  ({len(run['failures'])} of {run['jobs']} jobs: " \
                   f"{', '.join(sorted(run['failures'])) or 'none'})"
        print(f"  {name:<18} {value:<12.6g} {units[name]}{note}")
    for name, value in run.get("layers", {}).items():
        print(f"  {name:<40} {value:<14.6g} {units.get(name, '')}")
    if "trace_gap" in run:
        print(f"  spans written to {run['spans']}; self times match job "
              f"times to {run['trace_gap']:.2%}")
    for name, reason in sorted(run["failures"].items()):
        tag = "known" if name in KNOWN_FAILURES else "UNEXPECTED"
        print(f"  {tag} failure {name}: {reason}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")


def result_line(run: dict, trace: bool) -> str:
    source, specs = (run["layers"], BENCH["per_layer"]) if trace else \
        (run["metrics"], BENCH["end_to_end"])
    return json.dumps({
        "correct": not run["problems"],
        "attempted": run["jobs"],
        "failed": len(run["failures"]),
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in specs},
    })


# ---------------------------------------------------------------------------
# Several runs, and comparing two sets of runs
# ---------------------------------------------------------------------------

def _quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def suite(workloads, seeds, seconds, trace, out_path) -> int:
    units = _units()
    summary = {"seconds": seconds, "trace": trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = measure(workload, seed, seconds, trace)
            print_run(run)
            runs.append(run)
        table = {}
        names = list(runs[0]["metrics"]) + list(runs[0].get("layers", {}))
        for name in names:
            values = [r["metrics"].get(name, r.get("layers", {}).get(name))
                      for r in runs]
            q1, med, q3 = _quartiles(values)
            table[name] = {"values": values, "q1": q1, "median": med, "q3": q3}
        summary["workloads"][workload] = {
            "metrics": table,
            "failing_jobs": sorted({n for r in runs for n in r["failures"]}),
            "problems": [p for r in runs for p in r["problems"]]}
        print(f"\n== {workload}: {len(runs)} runs")
        print(f"  {'metric':<40} {'unit':<7} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'iqr/med':>8}  n")
        for name, row in table.items():
            spread = (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0
            print(f"  {name:<40} {units.get(name, ''):<7} {row['median']:>11.5g} "
                  f"{row['q1']:>11.5g} {row['q3']:>11.5g} {spread:>8.2%}  "
                  f"{len(row['values'])}")
        print(f"  failing jobs: {', '.join(summary['workloads'][workload]['failing_jobs']) or 'none'}")
        print()
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out_path}")
    bad = [p for w in summary["workloads"].values() for p in w["problems"]]
    return 1 if bad else 0


def verdict(base: dict, new: dict, spec: dict) -> str:
    """better / worse / same / unresolved for one metric of one workload.

    worse: the median moved the wrong way by more than the bound.  better:
    it moved the right way by more than the bound and the base's own spread
    (IQR), and at least nine in ten (new, base) run pairs favour the new
    side; two sets of runs of the same code can differ by less than the
    bound on this alone, as the machine's speed drifts.  unresolved: a
    spread is wider than the bound and the runs overlap."""
    sign = 1 if spec["better"] == "lower" else -1
    scale = abs(base["median"]) or 1.0
    change = sign * (new["median"] - base["median"]) / scale   # > 0: worse
    base_spread = (base["q3"] - base["q1"]) / scale
    new_spread = (new["q3"] - new["q1"]) / (abs(new["median"]) or 1.0)
    pairs = [sign * (n - b) for n in new["values"] for b in base["values"]]
    wins = sum(d < 0 for d in pairs) / len(pairs)
    losses = sum(d > 0 for d in pairs) / len(pairs)
    if max(base_spread, new_spread) > spec["bound"] and wins < 1 and losses < 1:
        return "unresolved"
    if change > spec["bound"]:
        return "worse"
    if -change > max(spec["bound"], base_spread) and wins >= 0.9:
        return "better"
    return "same"


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    specs = {m["name"]: m for m in BENCH["end_to_end"]}
    specs.update({name: dict(spec, name=name)
                  for name, spec in EXTRA_METRICS.items()})
    worse = False
    for workload in [w for w in base if w in new]:
        cells = []
        for name, spec in specs.items():
            if name not in base[workload]["metrics"] \
                    or name not in new[workload]["metrics"]:
                continue
            b, n = base[workload]["metrics"][name], new[workload]["metrics"][name]
            label = verdict(b, n, spec)
            worse = worse or label == "worse"
            change = (n["median"] - b["median"]) / (abs(b["median"]) or 1.0)
            cells.append(f"{name} {label} ({change:+.1%})")
        print(f"{workload}: " + "; ".join(cells))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true",
                        help="run --workloads x --seeds and summarise")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10",
                        help="LO-HI or a comma list (default 1-10)")
    parser.add_argument("--out", default=str(OUT_DIR / "suite.json"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.suite:
            return suite(args.workloads.split(","), _seeds(args.seeds),
                         args.seconds, bool(args.trace), args.out)
        if not args.workload:
            parser.error("--workload is required for a single run")
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_run(run)
    print(result_line(run, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
