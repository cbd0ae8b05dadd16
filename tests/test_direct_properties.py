"""Property test of the direct mean-phonon readout against its protocol.

``direct_mean_phonon`` returns the closed form -sum_k p_k sin(2 chi_t k) of
<sigma_x2>.  The reference runs the protocol itself on a joint state with
the public gates: ion 2 starts in |g>, takes the carrier pi/2 pulse, then
the conditional phase chi_t of either sign on one mode, and sigma_x of ion
2 is read out.  The gates round the phases 0.5 chi_t k and 1.5 chi_t k
separately, so the two agree to 1e-12 plus a few ulps of the largest phase
2 |chi_t| nmax.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from phonon_optics import (
    LabParams,
    MotionalState,
    QubitState,
    Truncation,
    carrier_half_pulse,
    conditional_phase,
    direct_mean_phonon,
    joint_state,
    lab_to_angles,
    make_coherent,
    make_fock,
)

EPS = np.finfo(float).eps


@st.composite
def dense_states(draw):
    """A random state with every amplitude drawn, nmax <= 40."""
    trunc = Truncation(draw(st.integers(0, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    return MotionalState(trunc, amps / np.linalg.norm(amps))


# |chi_t| from 1e-4 to 1e6, of either sign
signed_angles = st.builds(lambda x, sign: sign * 10.0**x, st.floats(-4.0, 6.0),
                          st.sampled_from((1.0, -1.0)))


def protocol_sigma_x(state, chi_t, mode):
    js = joint_state(state, ion2=QubitState.ground())
    js = conditional_phase(mode, chi_t, carrier_half_pulse(js))
    return js.expect_sigma_x(2)


# the readout at nmax 40 and chi_t 777.77 was once refused at this 1.3e-12 gap
@example(make_fock(40, 0, Truncation(40)), 777.77, "c")
@example(make_fock(40, 0, Truncation(40)), -777.77, "c")  # a red detuning
@settings(max_examples=300)
@given(dense_states(), signed_angles, st.sampled_from("cr"))
def test_direct_readout_matches_the_protocol(state, chi_t, mode):
    est = direct_mean_phonon(state, chi_t, mode)
    tol = 1e-12 + 4 * EPS * 2 * abs(chi_t) * state.trunc.n_total_max
    assert abs(est.sigma_x_exact - protocol_sigma_x(state, chi_t, mode)) <= tol
    assert est.mean_n_linearized == -est.sigma_x_exact / (2 * chi_t)
    assert (est.chi_t, est.mode) == (chi_t, mode)
    # the mirror angle reads the same <n>, bit for bit
    assert direct_mean_phonon(state, -chi_t, mode).mean_n_linearized == est.mean_n_linearized


def test_a_red_detuning_reads_the_mean_phonon_number():
    # a negative detuning Delta makes chi * t negative; the readout reads <n>
    # from it as the protocol does
    p = LabParams(Omega=2.0, eta=0.1, eta_r=0.07, Delta=-5.0, Delta_r=3.0, Omega_r=4.0, t=1.5)
    chi_t = lab_to_angles(p).chi * p.t
    assert chi_t < 0.0
    state = make_coherent(1.0, 0, Truncation(20))
    est = direct_mean_phonon(state, chi_t, "c")
    tol = 1e-12 + 4 * EPS * 2 * abs(chi_t) * state.trunc.n_total_max
    assert abs(est.sigma_x_exact - protocol_sigma_x(state, chi_t, "c")) <= tol
    assert est.mean_n_linearized == direct_mean_phonon(state, -chi_t, "c").mean_n_linearized
    assert abs(est.mean_n_linearized - 1.0) < 1e-3  # <n> = |alpha|^2, less the linearization bias
