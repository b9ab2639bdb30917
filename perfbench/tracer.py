"""Span tracer for the traced benchmark run.

The tracer wraps phardy's public layer functions from outside the package.
Every name is patched where it is looked up: ``cli`` imports
``compare_weights`` by name, ``verify`` imports ``weight_values_float`` by
name, and so on, so the tracer replaces each binding of the function object
in every phardy module, not only the one in its defining module.

Two kinds of wrapper exist.  A span wrapper records (name, start, end,
parent span, job) in memory.  A count wrapper, used on hot leaf functions
that are only called from inside their own layer, just counts calls, so
that the million-call inner loops stay cheap; its time stays in the
enclosing span of the same layer.

A layer's self time is the duration of its spans minus the part covered by
their child spans; ``cli`` is the root span of each job, so the self times of
one job add up to that job's traced time.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numerics", "weights", "laplacian", "series", "proof_machinery",
          "verify", "cli")

CHECKS = ("check_g_bounds", "check_lemma_gpm", "check_lemma_ak_lower",
          "check_lemma_binom_upper", "check_lemma_g_linear",
          "check_pairwise_positivity", "check_EF_positive",
          "check_decomposition_identity", "check_n1_case")

# layer -> public functions recorded as spans
SPANNED = {
    "numerics": ("required_precision",),
    "weights": ("compare_weights", "eval_w", "eval_w_classical",
                "eval_w1_closed", "eval_w_closed_x", "weight_values_float"),
    "laplacian": ("ground_state_grid", "weight_from_supersolution"),
    "series": ("expand_correction", "expand_w_integer_p",
               "series_pow_binomial", "correction_positivity_report"),
    "proof_machinery": CHECKS,
    "verify": ("run_hardy_trials", "minimize_rayleigh"),
}
# layer -> hot functions that are only counted
COUNTED = {
    "series": ("series_mul",),
    "proof_machinery": ("eval_g", "eval_E", "eval_F"),
    "verify": ("hardy_lhs", "rayleigh_gradient"),
}
# WeightTable methods, recorded as weights spans
EXPORTS = ("to_json", "to_csv")
# Weight points made by an outermost weights call: the table size, or one.
_POINTS = {"weights.compare_weights": lambda table: len(table.rows),
           "weights.weight_values_float": len,
           **{f"weights.{name}": lambda value: 1
              for name in ("eval_w", "eval_w_classical", "eval_w1_closed",
                           "eval_w_closed_x")}}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.stack = []
        self.job = -1
        self.counts = Counter()  # (job, key) -> count
        self.values = defaultdict(list)   # (job, key) -> observed values
        self._depth = Counter()  # layer -> open spans of that layer
        self._patched = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        layer = name.split(".", 1)[0]
        points = _POINTS.get(name)
        on_result = _RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            outermost = self._depth[layer] == 0
            self._depth[layer] += 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
                self._depth[layer] -= 1
            if points and outermost:
                self.counts[(self.job, "weights.points")] += points(result)
            if on_result:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.job, name + ".calls")] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def install(self, modules: dict, weight_table_cls) -> None:
        """Patch every binding of each layer function in ``modules``
        (module name -> module object)."""
        for wrap, table in ((self._span_wrapper, SPANNED),
                            (self._count_wrapper, COUNTED)):
            for layer, names in table.items():
                for fname in names:
                    original = getattr(modules[layer], fname)
                    wrapper = wrap(f"{layer}.{fname}", original)
                    for module in modules.values():
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patched.append((module, attr, value))
                                setattr(module, attr, wrapper)
        for method in EXPORTS:
            original = getattr(weight_table_cls, method)
            self._patched.append((weight_table_cls, method, original))
            setattr(weight_table_cls, method,
                    self._span_wrapper(f"weights.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "job": job}) + "\n")

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]


def _on_bits(tracer, result):
    tracer.values[(tracer.job, "numerics.bits")].append(result)


def _on_coeffs(tracer, result):
    coeffs = result.c if hasattr(result, "c") else result.coeffs
    tracer.counts[(tracer.job, "series.coeffs")] += len(coeffs)


def _on_report(tracer, report):
    grid = report.grid
    if "points" in grid:
        points = grid["points"]
    elif "k_max" in grid:
        points = grid["k_max"] - grid["k_min"] + 1
    else:       # binomial cap: only k > p is checked
        points = sum(1 for k in grid["k"] if k > grid["p"][0])
    tracer.counts[(tracer.job, "proof_machinery.grid_points")] += points
    tracer.counts[(tracer.job, "proof_machinery.failures")] += len(report.failures)


def _on_rayleigh(tracer, result):
    tracer.counts[(tracer.job, "verify.rayleigh.iterations")] += result.iterations
    tracer.counts[(tracer.job, "verify.rayleigh.converged")] += int(result.converged)
    tracer.values[(tracer.job, "verify.rayleigh.quotient")].append(result.quotient)


def _on_trials(tracer, summary):
    tracer.counts[(tracer.job, "verify.trials")] += summary["trials"]


_RESULT_HOOKS = {
    "numerics.required_precision": _on_bits,
    "series.expand_correction": _on_coeffs,
    "series.expand_w_integer_p": _on_coeffs,
    "verify.minimize_rayleigh": _on_rayleigh,
    "verify.run_hardy_trials": _on_trials,
    **{f"proof_machinery.{name}": _on_report for name in CHECKS},
}


def layer_metrics(tracer: Tracer, output_bytes: int) -> tuple:
    """Per-layer metrics of one traced pass, and the worst per-job gap
    between the summed self times and the job's traced time (a share)."""
    selfs = tracer.self_times()
    busy = Counter()
    total = Counter()       # span name -> summed duration
    calls = Counter()       # span name -> calls
    job_self = Counter()
    job_time = {}
    for (name, start, end, parent, job), own in zip(tracer.spans, selfs):
        layer = name.split(".", 1)[0]
        busy[layer] += own
        total[name] += end - start
        calls[name] += 1
        job_self[job] += own
        if parent < 0:
            job_time[job] = end - start
    gap = max((abs(job_self[j] - t) / t for j, t in job_time.items() if t > 0),
              default=0.0)

    counts = Counter()
    values = defaultdict(list)
    rayleigh_jobs = {job for job, key in tracer.counts
                     if key == "verify.rayleigh.iterations"}
    in_rayleigh = Counter()
    for (job, key), n in tracer.counts.items():
        counts[key] += n
        if job in rayleigh_jobs:
            in_rayleigh[key] += n
    for (_, key), vals in tracer.values.items():
        values[key].extend(vals)

    def ratio(num, den):
        return num / den if den else 0.0

    bits = values["numerics.bits"]
    quotients = values["verify.rayleigh.quotient"]
    rayleigh_jobs = calls["verify.minimize_rayleigh"]
    m = {f"{layer}.busy_s": busy[layer] for layer in LAYERS if layer != "cli"}
    m.update({
        "numerics.required_precision.calls": calls["numerics.required_precision"],
        "numerics.bits_mean": statistics.fmean(bits) if bits else 0.0,
        "numerics.bits_max": max(bits, default=0),
        "weights.points": counts["weights.points"],
        "weights.us_per_point": 1e6 * ratio(busy["weights"],
                                            counts["weights.points"]),
        "weights.export_s": total["weights.to_json"] + total["weights.to_csv"],
        "weights.tabulate.calls": calls["weights.weight_values_float"],
        "weights.tabulate_s": total["weights.weight_values_float"],
        "weights.closed_x.calls": calls["weights.eval_w_closed_x"],
        "laplacian.calls": (calls["laplacian.ground_state_grid"]
                            + calls["laplacian.weight_from_supersolution"]),
        "laplacian.ground_state_s": total["laplacian.ground_state_grid"],
        "series.expand_correction_s": total["series.expand_correction"],
        "series.expand_w_integer_p_s": total["series.expand_w_integer_p"],
        "series.series_pow_binomial_s": total["series.series_pow_binomial"],
        "series.series_mul.calls": counts["series.series_mul.calls"],
        "series.coeffs": counts["series.coeffs"],
        **{f"proof_machinery.{name}_s": total[f"proof_machinery.{name}"]
           for name in CHECKS},
        "proof_machinery.eval_g.calls": counts["proof_machinery.eval_g.calls"],
        "proof_machinery.eval_E.calls": counts["proof_machinery.eval_E.calls"],
        "proof_machinery.eval_F.calls": counts["proof_machinery.eval_F.calls"],
        "proof_machinery.grid_points": counts["proof_machinery.grid_points"],
        "proof_machinery.failures": counts["proof_machinery.failures"],
        "verify.minimize_rayleigh_s": total["verify.minimize_rayleigh"],
        "verify.rayleigh.iterations": counts["verify.rayleigh.iterations"],
        "verify.hardy_lhs.calls": counts["verify.hardy_lhs.calls"],
        "verify.rayleigh_gradient.calls": counts["verify.rayleigh_gradient.calls"],
        # Each descent step takes one gradient, so within the Rayleigh jobs
        # this is quotient evaluations (the gradient's own included) per step.
        "verify.evals_per_iter": ratio(
            in_rayleigh["verify.hardy_lhs.calls"],
            in_rayleigh["verify.rayleigh_gradient.calls"]),
        "verify.rayleigh.converged_frac": ratio(counts["verify.rayleigh.converged"],
                                                rayleigh_jobs),
        "verify.rayleigh.q_mean": statistics.fmean(quotients) if quotients else 0.0,
        "verify.run_hardy_trials_s": total["verify.run_hardy_trials"],
        "verify.trials_per_s": ratio(counts["verify.trials"],
                                     total["verify.run_hardy_trials"]),
        "cli.self_s": busy["cli"],
        "cli.output_bytes": output_bytes,
    })
    return m, gap
