"""Property tests of the closed-form Mach-Zehnder statistics.

The oracle propagates the state through the three interferometer factors
(``mz_output``), takes expectation values of the output, and estimates the
slope by a central difference.  A report does not check itself: the bound
on a rounded-negative variance is a property here.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from phonon_optics import (
    InterferometerReport,
    MotionalState,
    Truncation,
    expect,
    make_fock,
    mz_output,
    mz_report,
    phase_sweep,
)

ORACLE_STEP = 1e-4

phases = st.floats(-2 * math.pi, 4 * math.pi)
parts = st.floats(-1.0, 1.0)


@st.composite
def states(draw):
    trunc = Truncation(draw(st.integers(0, 8)))
    re = np.array(draw(st.lists(parts, min_size=trunc.dim, max_size=trunc.dim)))
    im = np.array(draw(st.lists(parts, min_size=trunc.dim, max_size=trunc.dim)))
    amps = re + 1j * im
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return MotionalState(trunc, amps / norm)


def oracle(state, phi):
    out = mz_output(state, phi)
    mean = expect(out, "jz")
    mean2 = expect(out, "jz2")
    up = expect(mz_output(state, phi + ORACLE_STEP), "jz")
    down = expect(mz_output(state, phi - ORACLE_STEP), "jz")
    return mean, mean2, mean2 - mean**2, (up - down) / (2 * ORACLE_STEP)


@given(states(), phases)
def test_closed_form_matches_propagation(state, phi):
    mean, mean2, var, slope = oracle(state, phi)
    r = mz_report(state, phi)
    assert r.phi == phi
    assert r.mean_jz == pytest.approx(mean, abs=1e-10)
    assert r.mean_jz2 == pytest.approx(mean2, abs=1e-10)
    assert r.var_jz == pytest.approx(var, abs=1e-10)
    assert r.dmeanjz_dphi == pytest.approx(slope, abs=1e-6)


@given(states(), phases)
def test_two_pi_periodicity(state, phi):
    a = mz_report(state, phi)
    b = mz_report(state, phi + 2 * math.pi)
    assert b.mean_jz == pytest.approx(a.mean_jz, abs=1e-10)
    assert b.mean_jz2 == pytest.approx(a.mean_jz2, abs=1e-10)
    assert b.var_jz == pytest.approx(a.var_jz, abs=1e-10)
    assert b.dmeanjz_dphi == pytest.approx(a.dmeanjz_dphi, abs=1e-10)


@given(states(), st.lists(phases, min_size=1, max_size=12))
def test_sweep_point_equals_single_report(state, grid):
    reports = phase_sweep(state, grid)
    assert len(reports) == len(grid)
    slots = InterferometerReport.__slots__
    for phi, report in zip(grid, reports):
        single = mz_report(state, phi)
        assert [getattr(report, f) for f in slots] == [getattr(single, f) for f in slots]


@example(make_fock(3, 0, Truncation(3)), [0.0, math.pi / 2, math.pi])
@given(states(), st.lists(phases, min_size=1, max_size=32))
def test_sweep_variance_is_nonnegative(state, grid):
    # var_jz is a quadratic form in the input's central (co)variances: only
    # rounding takes it below zero, and never below -1e-12
    assert min(r.var_jz for r in phase_sweep(state, grid)) >= -1e-12
