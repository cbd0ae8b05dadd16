"""The traced benchmark wraps package functions by name.

``perfbench/layers.py`` lists them in ``WRAPPED`` as (module, attribute,
span).  The traced child replaces each one with a timed wrapper, so a
renamed or removed function breaks the benchmark instead of a test.  This
loads the layer map by path, as the benchmark does, and checks every name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPPED


@pytest.mark.parametrize("module, attr, span", _wrapped())
def test_wrapped_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))
