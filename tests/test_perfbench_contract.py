"""The traced benchmark wraps package functions by name.

``perfbench/layers.py`` lists them in ``WRAPPED`` as (module, attribute,
span).  The traced child replaces each one with a timed wrapper, so a
renamed or removed function breaks the benchmark instead of a test.  This
loads the layer map by path, as the benchmark does, and checks every name.
The child also computes counters from the arguments of two wrapped calls,
so those run here on real operators and states.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from phonon_optics import Truncation, beam_splitter, make_fock

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
TRACE_CHILD = LAYERS.with_name("trace_child.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPPED


@pytest.mark.parametrize("module, attr, span", _wrapped())
def test_wrapped_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def test_trace_child_counters_take_real_arguments(monkeypatch):
    # the child imports ``layers`` as a top-level module, as when run as a script
    monkeypatch.syspath_prepend(str(LAYERS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", TRACE_CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    trunc = Truncation(4)
    assert child._cubic_ops("b1", 0.3, trunc) == (5 * 6 // 2) ** 2
    assert child._block_bytes(beam_splitter("b1", 0.3, trunc), make_fock(1, 0, trunc)) == 0
