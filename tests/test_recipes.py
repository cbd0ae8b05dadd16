import math
import re

import numpy as np
import pytest

from phonon_optics import (
    QubitState,
    Truncation,
    entangled_cat,
    entangled_cat_target,
    entangled_cat_u2u3,
    entangled_cat_u2u3_target,
    entangled_number,
    fidelity,
    make_cat,
    reduced_purity,
)
from phonon_optics.fockspace import coherent_superposition

THETAS = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)


def single_phonon_coefficients(kind, theta):
    """Closed-form (c_10, c_01) of the beam-split |1, 0>."""
    if kind == "b1":
        return math.cos(theta / 2), -1j * math.sin(theta / 2)
    return math.cos(theta / 2), math.sin(theta / 2)


def two_phonon_coefficients(kind, theta):
    """Closed-form (c_11, c_20, c_02) of the beam-split |1, 1>."""
    if kind == "b1":
        return (
            math.cos(theta),
            -1j * math.sin(theta) / math.sqrt(2),
            -1j * math.sin(theta) / math.sqrt(2),
        )
    return (
        math.cos(theta),
        -math.sin(theta) / math.sqrt(2),
        math.sin(theta) / math.sqrt(2),
    )


@pytest.mark.parametrize("kind", ["b1", "b2"])
def test_single_phonon_closed_form_on_grid(kind):
    t = Truncation(6)
    for theta in THETAS:
        out = entangled_number(kind, "one_zero", float(theta), t)
        c10, c01 = single_phonon_coefficients(kind, theta)
        assert out.amplitude(1, 0) == pytest.approx(c10, abs=1e-12)
        assert out.amplitude(0, 1) == pytest.approx(c01, abs=1e-12)


@pytest.mark.parametrize("kind", ["b1", "b2"])
def test_two_phonon_closed_form_on_grid(kind):
    t = Truncation(6)
    for theta in THETAS:
        out = entangled_number(kind, "one_one", float(theta), t)
        c11, c20, c02 = two_phonon_coefficients(kind, theta)
        assert out.amplitude(1, 1) == pytest.approx(c11, abs=1e-12)
        assert out.amplitude(2, 0) == pytest.approx(c20, abs=1e-12)
        assert out.amplitude(0, 2) == pytest.approx(c02, abs=1e-12)


def test_entangled_number_theta_zero_is_input():
    t = Truncation(4)
    out = entangled_number("b2", "one_zero", 0.0, t)
    assert out.amplitude(1, 0) == pytest.approx(1.0, abs=1e-14)


def test_entangled_number_validates_arguments():
    with pytest.raises(ValueError, match="n_total_max >= 2"):
        entangled_number("b1", "one_zero", 0.1, Truncation(1))
    with pytest.raises(ValueError, match="input_state"):
        entangled_number("b1", "two_two", 0.1, Truncation(4))


def test_entangled_number_at_its_smallest_truncation():
    # |1, 1> needs n_total_max = 2 and no more: a 50/50 b2 sends half of it to |2, 0>
    out = entangled_number("b2", "one_one", math.pi / 2, Truncation(2))
    assert abs(out.amplitude(2, 0)) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_maximal_entanglement_at_half_turn():
    t = Truncation(4)
    for kind, inp in (("b1", "one_zero"), ("b2", "one_zero"), ("b1", "one_one"), ("b2", "one_one")):
        out = entangled_number(kind, inp, math.pi / 2, t)
        assert reduced_purity(out) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("theta", [math.pi / 2, 1.1])
def test_entangled_cat_matches_direct_expansion(parity, theta):
    t = Truncation(40)
    out = entangled_cat(1.5, parity, theta, t)
    target = entangled_cat_target(1.5, parity, theta, t)
    assert fidelity(out, target) >= 1 - 1e-10


def test_entangled_cat_half_turn_splits_amplitude_evenly():
    # theta = pi/2 sends alpha to alpha/sqrt(2) in both modes
    t = Truncation(40)
    alpha = 1.2
    out = entangled_cat(alpha, "even", math.pi / 2, t)
    w = 1 / math.sqrt(2 * (1 + math.exp(-2 * alpha**2)))
    at = alpha / math.sqrt(2)
    target = coherent_superposition([(w, at, at), (w, -at, -at)], t)
    assert fidelity(out, target) >= 1 - 1e-10


def test_entangled_cat_theta_zero_is_input():
    t = Truncation(30)
    out = entangled_cat(1.0, "even", 0.0, t)
    assert fidelity(out, make_cat(1.0, "even", "c", t)) == pytest.approx(1.0, abs=1e-12)


def test_entangled_cat_parity_conservation():
    # beam splitters conserve the total, so an even cat stays on even totals
    t = Truncation(30)
    out = entangled_cat(1.3, "even", 0.77, t)
    ms, ns = t.mode_numbers()
    assert np.all(out.amps[(ms + ns) % 2 == 1] == 0)
    odd = entangled_cat(1.3, "odd", 0.77, t)
    assert np.all(odd.amps[(ms + ns) % 2 == 0] == 0)


def test_entangled_cat_rejects_overflowing_truncation():
    with pytest.raises(ValueError, match="discards probability"):
        entangled_cat(2.5, "even", 1.0, Truncation(4))


def test_u2u3_rejects_overflowing_truncation():
    with pytest.raises(ValueError, match="input discards probability 0.97"):
        entangled_cat_u2u3(3.0, 3.0, "even", Truncation(10))


def test_u2u3_vacuum_case():
    t = Truncation(10)
    js = entangled_cat_u2u3(0.0, 0.0, "even", t)
    target = entangled_cat_u2u3_target(0.0, 0.0, "even", t)
    assert js.motional_fidelity(target) == pytest.approx(1.0, abs=1e-12)
    assert target.amplitude(0, 0) == pytest.approx(1.0, abs=1e-12)


def test_u2u3_equal_amplitudes():
    # alpha = beta = 1: components (0, sqrt(2)) and (sqrt(2), 0)
    t = Truncation(30)
    js = entangled_cat_u2u3(1.0, 1.0, "even", t)
    root2 = math.sqrt(2)
    raw = coherent_superposition([(1.0, 0.0, root2), (1.0, root2, 0.0)], t)
    assert js.motional_fidelity(raw) >= 1 - 1e-10


# the ids name the sign between the two cat terms
@pytest.mark.parametrize("parity", ["even", "odd"], ids=["+", "-"])
def test_u2u3_general_case_and_internal_immunity(parity):
    t = Truncation(40)
    js = entangled_cat_u2u3(1.0, 2.0, parity, t)
    target = entangled_cat_u2u3_target(1.0, 2.0, parity, t)
    assert js.motional_fidelity(target) >= 1 - 1e-9
    assert js.qubit_fidelity(1, QubitState.plus()) == pytest.approx(1.0, abs=1e-12)
    assert js.qubit_fidelity(2, QubitState.ground()) == pytest.approx(1.0, abs=1e-12)


def test_u2u3_minus_eigenstate_reverses_rotation():
    # sigma_x1 = -1 sees the opposite rotation sense, so the splitter sends
    # |alpha, beta> to |(alpha+beta)/sqrt(2), (beta-alpha)/sqrt(2)> and the
    # parity flip then negates the first amplitude.
    alpha, beta = 1.0, 2.0
    t = Truncation(40)
    js = entangled_cat_u2u3(alpha, beta, "even", t, ion1=QubitState.minus())
    e_minus = (beta - alpha) / math.sqrt(2)
    e_plus = (beta + alpha) / math.sqrt(2)
    target = coherent_superposition([(1.0, -e_plus, e_minus), (1.0, -e_minus, e_plus)], t)
    assert js.motional_fidelity(target) >= 1 - 1e-9
    assert js.qubit_fidelity(1, QubitState.minus()) == pytest.approx(1.0, abs=1e-12)


def test_u2u3_rejects_non_eigenstate_preparation():
    with pytest.raises(ValueError, match="sigma_x eigenstate"):
        entangled_cat_u2u3(1.0, 1.0, "even", Truncation(20), ion1=QubitState.ground())


@pytest.mark.parametrize(
    "build",
    [
        lambda t: entangled_cat(1e200, "even", 0.3, t),
        lambda t: entangled_cat_target(2e154j, "odd", 0.3, t),
        lambda t: entangled_cat_u2u3(-1e200, 1.0, "even", t),
        lambda t: entangled_cat_u2u3(1.0, 1e200, "odd", t),
        lambda t: entangled_cat_u2u3_target(1.0, 1e300, "even", t),
    ],
    ids=["cat", "cat-target", "u2u3-alpha", "u2u3-beta", "u2u3-target"],
)
def test_overflowing_cat_amplitude_is_refused(build):
    with pytest.raises(ValueError, match=r"out of range: \|alpha\|\^2 must be finite"):
        build(Truncation(5))


def test_u2u3_rejects_zero_odd_input():
    with pytest.raises(ValueError, match="zero vector"):
        entangled_cat_u2u3(0.0, 1.0, "odd", Truncation(20))


@pytest.mark.parametrize("parity", ["+", "-", "Even"])
def test_cat_parity_is_spelled_even_or_odd_everywhere(parity):
    t = Truncation(10)
    for build in (lambda: make_cat(1.0, parity, "c", t),
                  lambda: entangled_cat(1.0, parity, 0.3, t),
                  lambda: entangled_cat_target(1.0, parity, 0.3, t),
                  lambda: entangled_cat_u2u3(1.0, 1.0, parity, t),
                  lambda: entangled_cat_u2u3_target(1.0, 1.0, parity, t)):
        message = f"parity must be 'even' or 'odd', got '{parity}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
