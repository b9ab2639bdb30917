"""Improved discrete p-Hardy weights: exact series expansions,
cancellation-safe high-precision evaluation, the combinatorial p-Laplacian
supersolution identity, grid-checkable proof machinery, and variational
verification of the inequality.

The names below and the layer modules (``phardy.verify`` and so on) are
imported on first use (PEP 562), so a program that never touches the float
verification layer never imports numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYERS = ("numerics", "weights", "laplacian", "series", "proof_machinery",
           "verify", "cli")

# Exported name -> the layer that defines it.
_EXPORTS = {name: layer for layer, names in (
    ("numerics", ("ExponentPair", "PrecReal", "binom_general_rational",
                  "required_precision")),
    ("weights", ("WeightKind", "WeightTable", "compare_weights", "eval_w",
                 "eval_w1_closed", "eval_w_classical")),
    ("laplacian", ("ground_state_grid", "weight_from_supersolution")),
    ("series", ("PowerSeries", "WeightExpansion", "expand_correction",
                "expand_w_integer_p", "series_mul", "series_pow_binomial")),
    ("verify", ("CompactFunction", "InequalityReport", "RayleighResult",
                "check_hardy", "hardy_lhs", "hardy_rhs", "minimize_rayleigh",
                "random_compact", "rayleigh_gradient", "rayleigh_quotient")),
) for name in names}


def __getattr__(name):
    # Resolved on every access, never stored here, so a name always reads
    # its layer's current binding.
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYERS, *_EXPORTS})
