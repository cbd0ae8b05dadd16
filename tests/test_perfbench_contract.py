"""The traced benchmark wraps package functions by name.

``perfbench/layers.py`` lists them in ``WRAPPED`` as (module, attribute,
span).  The traced child replaces each one with a timed wrapper, so a
renamed or removed function breaks the benchmark instead of a test.  This
loads the layer map by path, as the benchmark does, and checks every name.
The child also computes counters from the arguments of two wrapped calls,
so those run here on real operators and states.  Last, the seed-1
``large-cutoff`` program of ``perfbench/workloads.py`` runs in process, and
its passive run must stop at its last weighted rotation block.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from phonon_optics import Truncation, beam_splitter, make_fock, seqlang

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
TRACE_CHILD = LAYERS.with_name("trace_child.py")
WORKLOADS = LAYERS.with_name("workloads.py")


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


def test_large_cutoff_rotates_only_its_weighted_blocks(monkeypatch, drawn_blocks):
    # a coherent input of mean about 25 phonons at nmax 300: blocks 142..300
    # together weigh less than the floor, so 142 of the 301 blocks are drawn
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    (op,) = workloads.build("large-cutoff", 1)
    (_, text), = op.files
    result = seqlang.execute(seqlang.parse(text))
    assert result.final_state.trunc.n_total_max == 300
    assert len(drawn_blocks) == 1  # bs1, bs2, ps and mz fold into one rotation
    assert drawn_blocks[0] <= 160
