"""Improved discrete p-Hardy weights: exact series expansions,
cancellation-safe high-precision evaluation, the combinatorial p-Laplacian
supersolution identity, grid-checkable proof machinery, and variational
verification of the inequality."""

from .numerics import (
    ExponentPair,
    PrecReal,
    binom_general_rational,
    required_precision,
)
from .weights import (
    WeightKind,
    WeightTable,
    compare_weights,
    eval_w,
    eval_w1_closed,
    eval_w_classical,
)
from .laplacian import ground_state_grid, weight_from_supersolution
from .series import (
    PowerSeries,
    WeightExpansion,
    binomial_series,
    expand_correction,
    expand_w_integer_p,
    series_eval,
    series_mul,
    series_pow_binomial,
)
from .verify import (
    CompactFunction,
    InequalityReport,
    RayleighResult,
    check_hardy,
    hardy_lhs,
    hardy_rhs,
    minimize_rayleigh,
    random_compact,
    rayleigh_gradient,
    rayleigh_quotient,
)

__version__ = "0.1.0"
