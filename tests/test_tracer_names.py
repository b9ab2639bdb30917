"""The benchmark's tracer patches phardy's layer functions by name.

perfbench/tracer.py is loaded from its file and left as it is; every name it
wraps must still exist, or only the traced benchmark run would notice.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from phardy.weights import WeightTable

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
NAMES = [(layer, name)
         for table in (TRACER.SPANNED, TRACER.COUNTED)
         for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer, name", NAMES)
def test_layer_function_exists(layer, name):
    module = importlib.import_module(f"phardy.{layer}")
    assert callable(getattr(module, name, None)), f"phardy.{layer}.{name}"


@pytest.mark.parametrize("method", TRACER.EXPORTS)
def test_export_method_exists(method):
    assert callable(getattr(WeightTable, method, None)), method


@pytest.mark.parametrize("argv, span", [
    (["verify", "--p", "2", "--trials", "3", "--support", "5"],
     "verify.run_hardy_trials"),
    (["rayleigh", "--p", "2", "--N", "5"], "verify.minimize_rayleigh"),
])
def test_verify_spans_recorded_through_cli(argv, span):
    # cli imports the verify layer inside its handlers, so the spans rest on
    # the tracer's patch of the verify module itself.
    import phardy
    from phardy import (cli, laplacian, numerics, proof_machinery, series,
                        verify, weights)

    modules = {"numerics": numerics, "weights": weights,
               "laplacian": laplacian, "series": series,
               "proof_machinery": proof_machinery, "verify": verify,
               "cli": cli, "phardy": phardy}
    originals = {name: getattr(verify, name)
                 for name in TRACER.SPANNED["verify"]}
    tracer = TRACER.Tracer()
    tracer.install(modules, WeightTable)
    try:
        tracer.job = 0
        root = tracer.open("cli.main")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert code == 0
    recorded = {name for name, *_ in tracer.spans}
    assert span in recorded, recorded
    assert {name: getattr(verify, name) for name in originals} == originals
