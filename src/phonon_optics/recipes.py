"""State-generation recipes built from beam splitters and conditional phases.

Each recipe has a closed-form companion (``*_target``) constructed directly
from coherent-state amplitudes, with no operator application, so round-trip
tests never compare an implementation against itself.
"""

import math

from .fockspace import (
    JointState,
    MotionalState,
    QubitState,
    Truncation,
    _cat_sign,
    _choice,
    _finite,
    _number,
    _require_cat_norm,
    coherent_superposition,
    joint_state,
    make_cat,
    make_fock,
)
from .operators import apply, beam_splitter, conditional_phase, joint_bs_propagator


def entangled_number(
    kind: str, input_state: str, theta: float, trunc: Truncation
) -> MotionalState:
    """Beam-split number state, the source of entangled single- and
    two-phonon states.

    input_state ``one_zero`` starts from |1, 0>, ``one_one`` from |1, 1>.
    At theta = pi/2 the outputs are maximally entangled between the modes.
    """
    if trunc.n_total_max < 2:
        raise ValueError("entangled_number needs n_total_max >= 2")
    input_state = _choice(input_state, "input_state", ("one_zero", "one_one"))
    start = make_fock(1, 0 if input_state == "one_zero" else 1, trunc)
    return apply(beam_splitter(kind, theta, trunc), start)


def entangled_cat(alpha: complex, parity: str, theta: float, trunc: Truncation) -> MotionalState:
    """Beam-split a single-mode cat into a two-mode entangled cat.

    The input is the even or odd cat in the center-of-mass mode with vacuum
    in the breathing mode; the Jy beam splitter at angle theta produces the
    entangled pair with amplitudes alpha cos(theta/2) and alpha sin(theta/2).
    """
    cat = make_cat(alpha, parity, "c", trunc)
    if cat.flagged:
        raise ValueError(
            f"input cat discards probability {cat.tail_mass:.3g} at this truncation; "
            "increase n_total_max"
        )
    return apply(beam_splitter("b2", theta, trunc), cat)


def entangled_cat_target(
    alpha: complex, parity: str, theta: float, trunc: Truncation
) -> MotionalState:
    """Direct expansion of the entangled-cat output, bypassing all operators."""
    sign, alpha = _cat_sign(parity), _number(alpha, "coherent amplitude")
    _require_cat_norm(alpha, sign)
    half = _finite(theta, "theta") / 2.0
    at = alpha * math.cos(half)
    bt = alpha * math.sin(half)
    return coherent_superposition([(1.0, at, bt), (sign, -at, -bt)], trunc)


def entangled_cat_u2u3(
    alpha: complex,
    beta: complex,
    parity: str,
    trunc: Truncation,
    ion1: QubitState | None = None,
) -> JointState:
    """Two-pulse recipe: Jy splitter at pi/2, then a 2 pi conditional phase.

    The input motional state is the cat (parity 'even' or 'odd') in the
    center-of-mass mode times the coherent state |beta> in the breathing
    mode, with ion 2 in |g> and ion 1 in a sigma_x eigenstate (default +1).
    Both internal states come out unchanged; with the +1 eigenstate the
    motional factor is the normalized superposition of products of
    (beta -+ alpha)/sqrt(2) coherent states (see ``entangled_cat_u2u3_target``).
    """
    if ion1 is None:
        ion1 = QubitState.plus()
    if ion1.sigma_x_eigenvalue() is None:
        raise ValueError(
            "ion 1 must be prepared in a sigma_x eigenstate; other internal "
            "states entangle with the motion under this propagator"
        )
    sign = _cat_sign(parity)
    _require_cat_norm(alpha, sign)
    motional = coherent_superposition([(1.0, alpha, beta), (sign, -alpha, beta)], trunc)
    if motional.flagged:
        raise ValueError(
            f"input discards probability {motional.tail_mass:.3g} at this truncation; "
            "increase n_total_max"
        )
    js = joint_state(motional, ion1=ion1, ion2=QubitState.ground())
    js = joint_bs_propagator("u2", math.pi / 2.0, js)
    return conditional_phase("c", 2.0 * math.pi, js)


def entangled_cat_u2u3_target(
    alpha: complex, beta: complex, parity: str, trunc: Truncation
) -> MotionalState:
    """Normalized |e_minus, e_plus> + s |e_plus, e_minus>, s = +1 for parity
    'even' and -1 for 'odd', with e_pm = (beta +- alpha)/sqrt(2), built by
    direct expansion."""
    sign = _cat_sign(parity)
    alpha, beta = _number(alpha, "coherent amplitude"), _number(beta, "coherent amplitude")
    e_minus = (beta - alpha) / math.sqrt(2.0)
    e_plus = (beta + alpha) / math.sqrt(2.0)
    return coherent_superposition([(1.0, e_minus, e_plus), (sign, e_plus, e_minus)], trunc)
