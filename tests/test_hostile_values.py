"""Every public function, validating constructor and public method of an
exported record, held to hostile values.

Valid arguments come from a table keyed by annotation, and labels and
programs from a table keyed by parameter name; a method is called on the
record of its class that the same table holds.  Then one ``float``, ``int``
or ``complex`` slot at a time (an element of a phase grid or of a
superposition term counts as one), and each label (``str``) slot of a
method, takes each of nan, +-inf, 10**400, +-10**5000 (more digits than
str() converts), 2**63, +-1e308, 1e-320, True, -1, 0 and complex(inf, 0).
The call must either return records that hold only finite numbers or raise
a ValueError or TypeError whose message names the slot, and it must raise
no warning.
"""

import functools
import inspect
import math
import numbers
import re
import types
import typing
import warnings

import numpy as np
import pytest

import phonon_optics as po
from phonon_optics.fockspace import _Record

HOSTILE = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400,
    "10**5000": 10**5000, "-10**5000": -(10**5000), "2**63": 2**63,
    "1e308": 1e308, "-1e308": -1e308, "1e-320": 1e-320, "True": True, "-1": -1, "0": 0,
    "complex-inf": complex(math.inf, 0.0),
}

# the public entry points that validate scalar arguments but are classes
CONSTRUCTORS = {
    "Truncation": po.Truncation,
    "MotionalState": po.MotionalState,
    "JointState": po.JointState,
    "SignalTrace": po.SignalTrace,
    "LabParams": po.LabParams,
    "LabParams.linked": po.LabParams.linked,
}

ENTRY_POINTS = {
    **{name: obj for name, obj in vars(po).items()
       if inspect.isfunction(obj) and not name.startswith("_")},
    **CONSTRUCTORS,
}

# the exported records' public methods that are not swept, each with its reason
UNSWEPT_METHODS = {
    # the flat-index formula for ints or integer arrays, unchecked by design:
    # its callers pass pairs they have checked
    "Truncation.flat",
}

# the public methods of the exported records: name to (class, attribute)
METHODS = {
    f"{cls.__name__}.{attr}": (cls, attr)
    for cls in vars(po).values()
    if inspect.isclass(cls) and issubclass(cls, (_Record, tuple))
    for attr, member in vars(cls).items()
    if not attr.startswith("_")
    and isinstance(member, (types.FunctionType, classmethod, staticmethod))
    and f"{cls.__name__}.{attr}" not in CONSTRUCTORS.keys() | UNSWEPT_METHODS
}


def entry(name):
    """The callable of entry point or method ``name``; a method is bound to
    the record of its class in ``context()``."""
    if name in METHODS:
        cls, attr = METHODS[name]
        return getattr(context()[cls], attr)
    return ENTRY_POINTS[name]

# A slot's message may name it by the quantity it is read as.  Each
# alternative below is deliberate:
# - an amplitude whose Poisson weights all underflow, or whose |alpha|^2 is
#   too large to truncate, is refused by the mean phonon number it implies,
#   and a cat too large for its truncation by the probability it discards;
# - a coherent weight of 0 leaves a superposition of zero norm;
# - mz_report reads its phase as the one point of a phase grid;
# - a fit size m_max or k_max beyond the samples or the memory is refused by
#   the number of weights it asks for, m_max + 1 or k_max + 1;
# - a grid's fit width n_weights is refused by the number of weights;
# - a laboratory field that makes an effective angle overflow is refused by
#   the angles it overflows, and a zero detuning as such.
AMPLITUDE = ("coherent amplitude", "|alpha|^2 + |beta|^2", "mean phonon number",
             "discards probability")
NAMES = {
    "alpha": AMPLITUDE,
    "beta": AMPLITUDE,
    "terms[0][0]": ("superposition weight", "superposition has zero norm"),
    "terms[0][1]": AMPLITUDE,
    "terms[0][2]": AMPLITUDE,
    "phis[1]": ("phases",),
    "chi_t": ("chi * t", "chi_t"),
    "m_max": ("m_max", "weights"),
    "k_max": ("k_max", "weights"),
    "n_weights": ("n_weights", "weights"),
}
NAMES_IN = {
    ("mz_report", "phi"): ("phases",),
    # a qubit amplitude that is not finite, or that breaks the unit norm, is
    # refused as the qubit state it makes
    ("QubitState.of", "g"): ("g", "qubit state"),
    ("QubitState.of", "e"): ("e", "qubit state"),
}
LAB_NAMES = ("the laboratory parameters overflow", "detunings must be nonzero")

# the one non-finite number a record may hold on purpose
NON_FINITE_FIELDS = {
    # InterferometerReport: +inf where the signal slope vanishes, as documented
    "delta_phi",
}


@functools.cache
def context():
    t = po.Truncation(8)
    s = po.make_coherent(0.3, 0.2j, t)
    js = po.joint_state(s, ion1=po.QubitState.plus(), ion2=po.QubitState.ground())
    times = np.linspace(0.0, po.detection.DEFAULT_ANGLE_SPAN, 64)
    program = po.parse("init coherent 0.3 0 0.2 0 nmax 8\nbs2 pi/2\nreport\njcm single 1 0 8 32")
    trace = po.signal(s, 1.0, times, "single")
    two = po.signal(s, 1.0, times, "two")
    g, e = js.register(2)
    return {
        po.Truncation: t,
        po.MotionalState: s,
        po.JointState: js,
        po.UnitaryOperator: po.beam_splitter("b1", 0.7, t),
        po.QubitState | None: po.QubitState.plus(),
        po.SignalTrace: trace,
        po.LabParams: po.LabParams(1e5, 0.1, 0.076, 1e6, 1e6, 1e5, 1e-3),
        # the records whose methods are swept
        po.QubitState: po.QubitState.plus(),
        po.JointDistribution: po.number_distributions(s),
        po.DirectEstimate: po.direct_mean_phonon(s, 1e-3),
        po.ReconstructedNumberDistribution: po.reconstruct_single(trace, 8),
        po.LevelSetDistribution: po.reconstruct_two(two, 8),
        po.JzComparison: po.jz_from_methods(s),
        po.PulseProgram: program,
        typing.Iterable[po.InterferometerReport]: po.phase_sweep(s, [0.1, 0.2]),
        np.ndarray: times,
        tuple[int, ...]: (1, 2),
        float: 0.5,
        complex: 0.3 - 0.1j,
        int: 1,
        int | None: 3,
        typing.Iterable[float]: [0.1, 0.5],
        typing.Sequence[tuple[complex, complex, complex]]: [(1.0, 0.3, 0.2)],
        # by parameter name, for labels and texts
        "kind": "single",
        "beam_splitter.kind": "b1",
        "entangled_number.kind": "b2",
        "joint_bs_propagator.kind": "u1",
        "mode": "c",
        "parity": "even",
        "obs": "jx",
        "input_state": "one_zero",
        "text": "init fock 1 0 nmax 3\nbs1 pi/2\nreport",
        "state_from_json.text": po.state_to_json(s),
        "spec": "coherent 0.3 0 0.2 0 nmax 4",
        "reconstruct_two.trace": two,
        "JointState.amps": js.amps,
        "JointState.with_amps.amps": js.amps,
        "JointState.with_register.g": g,
        "JointState.with_register.e": e,
        "QubitState.of.g": 0.6,
        "QubitState.of.e": 0.8j,
        "amps": s.amps,
        "values": np.full(times.size, 0.5),
    }


def _hints(fn):
    return typing.get_type_hints(fn.__init__ if inspect.isclass(fn) else fn)


def valid_arguments(name):
    """The keyword arguments of a valid call of entry point or method ``name``."""
    fn = entry(name)
    hints = _hints(fn)
    table = context()
    kwargs = {}
    for param in inspect.signature(fn).parameters.values():
        for key in (f"{name}.{param.name}", param.name, hints.get(param.name)):
            if key in table:
                kwargs[param.name] = table[key]
                break
        else:
            raise KeyError(f"no valid value for {name}({param.name})")
    return kwargs


def scalar_slots(name):
    """(slot, replace) for every number slot of ``name``, and every label
    slot of a method: ``replace(kwargs, x)`` returns the keyword arguments
    with that one slot set to x."""
    fn = entry(name)
    hints = _hints(fn)
    swept = (float, int, complex, int | None, *((str,) if name in METHODS else ()))
    for param in inspect.signature(fn).parameters:
        hint = hints[param]
        if hint in swept:
            yield param, lambda kw, x, p=param: {**kw, p: x}
        elif hint == typing.Iterable[float]:
            yield f"{param}[1]", lambda kw, x, p=param: {**kw, p: [kw[p][0], x]}
        elif hint == typing.Sequence[tuple[complex, complex, complex]]:
            for i in range(3):
                yield f"{param}[0][{i}]", lambda kw, x, p=param, i=i: {
                    **kw, p: [tuple(x if j == i else v for j, v in enumerate(kw[p][0]))]}
        elif hint is po.LabParams:
            for field in po.LabParams.__slots__:
                yield f"{param}.{field}", lambda kw, x, p=param, f=field: {**kw, p: po.LabParams(
                    **{g: x if g == f else getattr(kw[p], g) for g in po.LabParams.__slots__})}


def non_finite(value, path="result"):
    """The paths of the non-finite numbers a result holds."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc" and not np.isfinite(value).all():
            yield path
    elif isinstance(value, numbers.Number) and not isinstance(value, numbers.Integral):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            yield path
    elif isinstance(value, (tuple, list)):
        fields = getattr(value, "_fields", range(len(value)))
        for field, item in zip(fields, value):
            yield from non_finite(item, f"{path}.{field}")
    elif isinstance(value, _Record):
        for field in type(value).__slots__:
            yield from non_finite(getattr(value, field), f"{path}.{field}")


def allowed(path):
    return path.rsplit(".", 1)[-1] in NON_FINITE_FIELDS


CASES = [(name, slot) for name in sorted(ENTRY_POINTS) for slot, _ in scalar_slots(name)]
METHOD_CASES = [(name, slot) for name in sorted(METHODS) for slot, _ in scalar_slots(name)]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS) + sorted(METHODS))
def test_every_entry_point_runs_on_its_valid_arguments(name):
    # a refusal below then comes from the hostile value alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = entry(name)(**valid_arguments(name))
    assert [p for p in non_finite(result) if not allowed(p)] == []


def test_the_sweep_reaches_every_number_slot():
    # each entry point is listed, and those with a number slot are swept
    assert len(ENTRY_POINTS) == 45
    swept = {name for name, _ in CASES}
    assert len(CASES) == 57 and len(swept) == 29


def test_the_sweep_reaches_every_method_slot():
    # each public method of an exported record is listed, and those with a
    # number or label slot are swept
    assert len(METHODS) == 31
    swept = {name for name, _ in METHOD_CASES}
    assert len(METHOD_CASES) == 18 and len(swept) == 14


@pytest.mark.parametrize("name, slot", CASES + METHOD_CASES,
                         ids=[f"{n}-{s}" for n, s in CASES + METHOD_CASES])
def test_a_hostile_number_is_refused_by_name_or_kept_finite(name, slot):
    replace = dict(scalar_slots(name))[slot]
    base = valid_arguments(name)
    names = NAMES_IN.get((name, slot), NAMES.get(slot, (slot,)))
    if slot.startswith("p."):  # a field of the LabParams that lab_to_angles reads
        names = (slot[2:], *LAB_NAMES)
    failures = []
    for label, x in HOSTILE.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = entry(name)(**replace(base, x))
            except (ValueError, TypeError) as exc:
                if not any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", str(exc)) for n in names):
                    failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            except Exception as exc:  # a leak, or a warning turned into an error
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
        if label == "True":
            failures.append(f"{label}: a bool was taken as a number")
        failures += [f"{label}: {p} is not finite" for p in non_finite(result) if not allowed(p)]
    assert failures == []
