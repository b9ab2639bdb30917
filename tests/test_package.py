"""The package's top-level names, resolved on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phardy

ROOT = Path(__file__).resolve().parent.parent

# Every name `phardy` exported while it imported its layers eagerly, by the
# layer that defines it.
EXPORTS = {
    "numerics": ("ExponentPair", "PrecReal", "binom_general_rational",
                 "required_precision"),
    "weights": ("WeightKind", "WeightTable", "compare_weights", "eval_w",
                "eval_w1_closed", "eval_w_classical"),
    "laplacian": ("ground_state_grid", "weight_from_supersolution"),
    "series": ("PowerSeries", "WeightExpansion", "expand_correction",
               "expand_w_integer_p", "series_mul", "series_pow_binomial"),
    "verify": ("CompactFunction", "InequalityReport", "RayleighResult",
               "check_hardy", "hardy_lhs", "hardy_rhs", "minimize_rayleigh",
               "random_compact", "rayleigh_gradient", "rayleigh_quotient"),
}
NAMES = [(layer, name) for layer, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("layer, name", NAMES)
def test_exported_name_is_the_layers_object(layer, name):
    module = importlib.import_module(f"phardy.{layer}")
    assert getattr(phardy, name) is getattr(module, name)
    assert name in dir(phardy)


@pytest.mark.parametrize("layer", [*EXPORTS, "proof_machinery", "cli"])
def test_layer_is_an_attribute(layer):
    assert getattr(phardy, layer) is importlib.import_module(f"phardy.{layer}")
    assert layer in dir(phardy)


def test_version_and_unknown_name():
    assert phardy.__version__ == "0.1.0"
    assert "__version__" in dir(phardy)
    with pytest.raises(AttributeError, match="no_such_name"):
        phardy.no_such_name
    with pytest.raises(ImportError):
        from phardy import no_such_name  # noqa: F401


def test_names_resolve_in_a_fresh_process():
    # The forms the demos and the benchmark use, before any layer is loaded.
    script = (
        "import sys\n"
        "import phardy\n"
        "assert 'phardy.verify' not in sys.modules\n"
        "from phardy import ExponentPair, minimize_rayleigh\n"
        "from phardy import verify\n"
        "assert minimize_rayleigh is verify.minimize_rayleigh\n"
        "assert phardy.verify is sys.modules['phardy.verify']\n"
        "assert ExponentPair is phardy.numerics.ExponentPair\n")
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
