"""The record contract of the package's classes.

States, operators and results are read-only after construction, and
``Truncation``, ``Angle`` and ``Statement`` compare by value.  The classes
are plain ``__slots__`` classes and a few ``typing.NamedTuple`` records;
none may be a dataclass, whose methods are generated when the package is
imported.
"""

import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import phonon_optics
from phonon_optics import (
    DirectEstimate,
    LabParams,
    QubitState,
    Truncation,
    beam_splitter,
    default_times,
    direct_mean_phonon,
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
from phonon_optics.seqlang import Angle, Statement, parse_angle

TRUNC = Truncation(3)
STATE = make_fock(1, 0, TRUNC)
TIMES = default_times(1.0, 16)

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
    ("DirectEstimate", lambda: direct_mean_phonon(STATE, 1e-3, 1.0), "mode"),
    ("Statement", lambda: parse("init fock 1 0 nmax 3").statements[0], "args"),
    ("PulseProgram", lambda: parse("init fock 1 0 nmax 3"), "statements"),
    ("EffectiveAngles",
     lambda: lab_to_angles(LabParams(1.0, 0.1, 0.076, 1e6, 1e6, 1.0, 1e-3)), "theta"),
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


def test_value_classes_compare_by_value():
    assert Truncation(4) == Truncation(4)
    assert Truncation(4) != Truncation(5)
    assert hash(Truncation(4)) == hash(Truncation(4))
    assert parse_angle("pi/3") == Angle.from_pi(1, 3)
    assert parse_angle("pi/3") != Angle(parse_angle("pi/3").value)  # the spelling counts
    text = "init coherent 0 0 2 0 nmax 40\nmz pi/3\nreport\n"
    first, second = parse(text).statements, parse(text).statements
    assert first == second and first[1] is not second[1]
    assert first[1] == Statement("mz", {"phi": Angle.from_pi(1, 3)})
    assert first[1] != Statement("mz", {"phi": Angle.from_pi(1, 4)})


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


@pytest.mark.parametrize("name", sorted(_package_classes()))
def test_no_class_is_a_dataclass(name):
    module, attr = name.split(".")
    cls = getattr(importlib.import_module(f"phonon_optics.{module}"), attr)
    assert not dataclasses.is_dataclass(cls)

