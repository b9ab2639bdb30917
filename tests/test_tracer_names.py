"""The benchmark's tracer patches phardy's layer functions by name.

perfbench/tracer.py is loaded from its file and left as it is; every name it
wraps must still exist, or only the traced benchmark run would notice.
"""

import importlib
import importlib.util
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
