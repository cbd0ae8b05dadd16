"""State-generation recipes built from beam splitters and conditional phases."""

import math

from .fockspace import (
    JointState,
    MotionalState,
    QubitState,
    Truncation,
    _cat_sign,
    _choice,
    coherent_superposition,
    joint_state,
    make_cat,
    make_fock,
)
from .operators import apply, beam_splitter, conditional_phase, joint_bs_propagator


def _kept(state: MotionalState) -> MotionalState:
    """``state``, unless its truncation flags it as lossy: a recipe refuses
    such an input rather than carry the lost probability through."""
    if state.flagged:
        raise ValueError(
            f"input discards probability {state.tail_mass:.3g} at this truncation; "
            "increase n_total_max"
        )
    return state


def entangled_number(
    kind: str, input_state: str, theta: float, trunc: Truncation
) -> MotionalState:
    """Beam-split number state, the source of entangled single- and
    two-phonon states.

    input_state ``one_zero`` starts from |1, 0>, ``one_one`` from |1, 1>.
    At theta = pi/2 the outputs are maximally entangled between the modes.
    """
    input_state = _choice(input_state, "input_state", ("one_zero", "one_one"))
    start = make_fock(1, 0 if input_state == "one_zero" else 1, trunc)
    return apply(beam_splitter(kind, theta, trunc), start)


def entangled_cat(alpha: complex, parity: str, theta: float, trunc: Truncation) -> MotionalState:
    """Beam-split a single-mode cat into a two-mode entangled cat.

    The input is the even or odd cat in the center-of-mass mode with vacuum
    in the breathing mode; the Jy beam splitter at angle theta produces the
    entangled pair with amplitudes alpha cos(theta/2) and alpha sin(theta/2).
    """
    cat = _kept(make_cat(alpha, parity, "c", trunc))
    return apply(beam_splitter("b2", theta, trunc), cat)


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
    motional factor is the normalized |e_-, e_+> + s |e_+, e_->, with
    e_pm = (beta +- alpha)/sqrt(2) and s = +1 for 'even', -1 for 'odd'.
    """
    if ion1 is None:
        ion1 = QubitState.plus()
    if ion1.sigma_x_eigenvalue() is None:
        raise ValueError(
            "ion 1 must be prepared in a sigma_x eigenstate; other internal "
            "states entangle with the motion under this propagator"
        )
    sign = _cat_sign(parity, alpha)
    motional = _kept(coherent_superposition([(1.0, alpha, beta), (sign, -alpha, beta)], trunc))
    js = joint_state(motional, ion1=ion1, ion2=QubitState.ground())
    js = joint_bs_propagator("u2", math.pi / 2.0, js)
    return conditional_phase("c", 2.0 * math.pi, js)
