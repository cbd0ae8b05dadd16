"""The record contract of the package's classes.

States, operators and results are read-only after construction, and
``Truncation``, ``Angle`` and ``Statement`` compare by value; no other
record defines ``__eq__``.  Every class subclasses ``fockspace._Record``,
which stores one value per slot and refuses any later assignment, except
the two ``typing.NamedTuple`` records ``Angle`` and ``Statement`` and two
exceptions; none may be a dataclass, whose methods are generated when the
package is imported.
Every array a record holds is read-only, frozen by the base alone, and
every record survives ``copy.copy``, ``copy.deepcopy`` and ``pickle``.
A record field holds a number, a string, a tuple, a record or a read-only
array, never a list, dict or set, so nothing a record reaches can be
rewritten in place: a ``Statement``'s ``args`` is a tuple too.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import json
import math
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import phonon_optics
from phonon_optics import (
    DirectEstimate,
    ExecutionResult,
    LabParams,
    QubitState,
    Truncation,
    apply,
    beam_splitter,
    default_times,
    direct_mean_phonon,
    execute,
    jz_from_methods,
    joint_state,
    lab_to_angles,
    make_fock,
    mz_report,
    number_distributions,
    parse,
    reconstruct_single,
    reconstruct_two,
    signal,
)
from phonon_optics.detection import jcm_unitary
from phonon_optics.fockspace import _Record
from phonon_optics.seqlang import Angle, Statement, _tokenize, parse_angle

TRUNC = Truncation(3)
STATE = make_fock(1, 0, TRUNC)
TIMES = default_times(1.0, 16)
LAB = (1.0, 0.1, 0.076, 1e6, 1e6, 1.0, 1e-3)
PROGRAM = "init fock 1 0 nmax 3\njcm single 1 0 1 16\ndirect c 0.001\nreport\n"

# (what, builder, one of its fields)
READ_ONLY = [
    ("MotionalState", lambda: STATE, "amps"),
    ("UnitaryOperator", lambda: beam_splitter("b1", 0.3, TRUNC), "matrix"),
    ("JointState", lambda: joint_state(STATE, ion2=QubitState.ground()), "tail_mass"),
    ("Truncation", lambda: Truncation(3), "n_total_max"),
    ("SignalTrace", lambda: signal(STATE, 1.0, TIMES, "single"), "values"),
    ("QubitState", QubitState.plus, "amps"),
    ("JointDistribution", lambda: number_distributions(STATE), "p_m"),
    ("InterferometerReport", lambda: mz_report(STATE, 0.5), "var_jz"),
    ("JcmUnitary", lambda: jcm_unitary(1.0, 0.5, TRUNC, "single"), "angle"),
    ("ReconstructedNumberDistribution",
     lambda: reconstruct_single(signal(STATE, 1.0, TIMES, "single"), 3), "p"),
    ("LevelSetDistribution",
     lambda: reconstruct_two(signal(STATE, 1.0, TIMES, "two"), 3), "q"),
    ("DirectEstimate", lambda: direct_mean_phonon(STATE, 1e-3), "mode"),
    ("Statement", lambda: parse("init fock 1 0 nmax 3").statements[0], "args"),
    ("PulseProgram", lambda: parse("init fock 1 0 nmax 3"), "statements"),
    ("EffectiveAngles", lambda: lab_to_angles(LabParams(*LAB)), "theta"),
    ("LabParams", lambda: LabParams(*LAB), "eta"),
    ("JzComparison", lambda: jz_from_methods(STATE, n_samples=16), "jz_direct"),
    ("TraceRecord", lambda: execute(parse(PROGRAM)).records[0], "trace"),
    ("DirectRecord", lambda: execute(parse(PROGRAM)).records[1], "estimate"),
    ("ReportRecord", lambda: execute(parse(PROGRAM)).records[2], "distribution"),
    ("ExecutionResult", lambda: execute(parse(PROGRAM)), "records"),
    ("_Token", lambda: _tokenize("bs1 pi/2")[0][1], "col"),
]


@pytest.mark.parametrize("what, build, field", READ_ONLY, ids=[r[0] for r in READ_ONLY])
def test_records_are_read_only(what, build, field):
    obj = build()
    assert type(obj).__name__ == what
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert getattr(obj, field) is before


def _arrays(obj, path):
    """(path, array) for every array reachable from ``obj`` through record
    fields, tuples, lists and dict values."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, _Record):
        for name in type(obj).__slots__:
            yield from _arrays(getattr(obj, name), f"{path}.{name}")
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _arrays(item, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays(value, f"{path}[{key!r}]")


def _containers(obj, path):
    """(path, type name) for every list, dict or set reachable from ``obj``
    through record fields and tuples."""
    if isinstance(obj, (list, dict, set)):
        yield path, type(obj).__name__
    elif isinstance(obj, _Record):
        for name in type(obj).__slots__:
            yield from _containers(getattr(obj, name), f"{path}.{name}")
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _containers(item, f"{path}[{i}]")


@pytest.mark.parametrize("what, build, field", READ_ONLY, ids=[r[0] for r in READ_ONLY])
def test_no_record_holds_a_mutable_container(what, build, field):
    assert list(_containers(build(), what)) == []


@pytest.mark.parametrize("what, build, field", READ_ONLY, ids=[r[0] for r in READ_ONLY])
def test_every_array_a_record_holds_is_read_only(what, build, field):
    for path, arr in _arrays(build(), what):
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
        assert np.array_equal(arr, before), path


def test_a_frozen_splitter_still_splits():
    t = Truncation(4)
    u = beam_splitter("b1", math.pi / 2, t)
    with pytest.raises(ValueError, match="read-only"):
        u.matrix[:] = 0
    fock = make_fock(1, 0, t)
    out = apply(u, fock).amps
    assert np.array_equal(out, apply(beam_splitter("b1", math.pi / 2, t), fock).amps)
    assert abs(out[t.index(1, 0)]) ** 2 == pytest.approx(0.5)


def _same(a, b):
    """Same type and equal values, arrays by ``np.array_equal``, records and
    containers item by item."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, _Record):
        return all(_same(getattr(a, name), getattr(b, name)) for name in type(a).__slots__)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("what, build, field", READ_ONLY, ids=[r[0] for r in READ_ONLY])
def test_records_survive_copy_and_pickle(what, build, field):
    obj = build()
    for how, clone in COPIES.items():
        twin = clone(obj)
        assert _same(twin, obj), how
        for path, arr in _arrays(twin, what):
            assert not arr.flags.writeable, (how, path)
        if isinstance(obj, Truncation):
            assert twin == obj


PACKAGE = Path(phonon_optics.__file__).parent


def _scoped_calls(node, scope=()):
    """(dotted enclosing class and function names, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Call):
            yield ".".join(scope), child
        yield from _scoped_calls(child, inner)


def test_only_the_record_base_freezes_arrays():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 8
    setflags, frozen, writeable = [], [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        setflags += [
            f"{path.stem}.{scope}"
            for scope, call in _scoped_calls(tree)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "setflags"
        ]
        for node in ast.walk(tree):
            if "_frozen" in (getattr(node, "name", None), getattr(node, "id", None)):
                frozen.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "writeable":
                writeable.append(f"{path.name}:{node.lineno}")
    assert setflags == ["fockspace._Record.__init__"]
    assert frozen == [] and writeable == []


def _marginal_picks(node, scope=()):
    """The dotted enclosing class and function names of each conditional that
    reads ``p_m`` on one branch and ``p_n`` on the other: a marginal picked
    by mode label."""
    def reads(parts):
        return {n.attr for part in parts for n in ast.walk(part) if isinstance(n, ast.Attribute)}

    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif isinstance(child, (ast.If, ast.IfExp)):
            body, orelse = (child.body, child.orelse) if isinstance(child, ast.If) else (
                [child.body], [child.orelse])
            if {frozenset(reads(body) & {"p_m", "p_n"}), frozenset(reads(orelse) & {"p_m", "p_n"})
                    } == {frozenset({"p_m"}), frozenset({"p_n"})}:
                yield ".".join(scope)
        yield from _marginal_picks(child, inner)


def test_only_fockspace_picks_a_marginal_by_mode():
    # JointDistribution.marginal reads the label; every other module asks it
    own = ast.parse("def f(d, mode):\n    return d.p_m if mode == 'c' else d.p_n\n"
                    "if m:\n    q = d.p_n\nelse:\n    q = d.p_m\n"
                    "both = d.p_m.tolist() if m else d.p_n.tolist() + d.p_m.tolist()\n")
    assert list(_marginal_picks(own)) == ["f", ""]
    picks = [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
             for scope in _marginal_picks(ast.parse(path.read_text(encoding="utf-8")))]
    assert picks == ["fockspace.JointDistribution.marginal"]


def test_value_classes_compare_by_value():
    assert Truncation(4) == Truncation(4)
    assert Truncation(4) != Truncation(5)
    assert hash(Truncation(4)) == hash(Truncation(4))
    assert parse_angle("pi/3") == Angle.from_pi(1, 3)
    assert parse_angle("pi/3") != Angle(parse_angle("pi/3").value)  # the spelling counts
    text = "init coherent 0 0 2 0 nmax 40\nmz pi/3\nreport\n"
    first, second = parse(text).statements, parse(text).statements
    assert first == second and first[1] is not second[1]
    assert first[1] == Statement("mz", (Angle.from_pi(1, 3),))
    assert first[1] != Statement("mz", (Angle.from_pi(1, 4),))


def test_parsed_statements_are_hashable_and_cannot_be_rewritten():
    statements = parse("init fock 0 0 nmax 3\nbs1 pi/2\nreport\nbs1 pi/2\n").statements
    assert len(set(statements)) == 3
    with pytest.raises(TypeError):
        statements[0].args[-1] = 1
    assert statements[0].args[-1] == 3


def test_direct_estimate_keeps_its_key_order():
    est = DirectEstimate(0.25, -125.0, 1e-3, "r")
    keys = ["sigma_x_exact", "mean_n_linearized", "chi_t", "mode"]
    assert list(json.loads(est.to_json())) == ["kind"] + keys
    header, row, end = est.to_csv().split("\n")
    assert header.split(",") == keys
    assert row == "0.25,-125,0.001,r" and end == ""


def _package_classes():
    for info in pkgutil.iter_modules(phonon_optics.__path__):
        module = importlib.import_module(f"phonon_optics.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}"


def _package_class(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"phonon_optics.{module}"), attr)


@pytest.mark.parametrize("name", sorted(_package_classes()))
def test_no_class_is_a_dataclass(name):
    assert not dataclasses.is_dataclass(_package_class(name))


NOT_RECORDS = {
    "seqlang.Angle", "seqlang.Statement",  # tuple semantics
    "seqlang.ParseError", "seqlang.ExecutionError",
    "fockspace._Record",
}


@pytest.mark.parametrize("name", sorted(set(_package_classes()) - NOT_RECORDS))
def test_every_other_class_is_a_record(name):
    cls = _package_class(name)
    assert issubclass(cls, _Record)
    assert "__setattr__" not in vars(cls) and "__delattr__" not in vars(cls)


@pytest.mark.parametrize("name", sorted(set(_package_classes()) - NOT_RECORDS))
def test_only_truncation_compares_by_value(name):
    # every other record compares by identity, as ``object`` does
    cls = _package_class(name)
    assert (cls.__eq__ is object.__eq__) == (name != "fockspace.Truncation")


@pytest.mark.parametrize("values", [(), (1,), (1, 2, 3)])
def test_a_wrong_field_count_names_the_class(values):
    with pytest.raises(TypeError, match=f"^ExecutionResult takes 2 values, got {len(values)}$"):
        ExecutionResult(*values)

