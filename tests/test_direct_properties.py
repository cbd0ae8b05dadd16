"""Property test of the direct mean-phonon readout against its protocol.

``direct_mean_phonon`` returns the closed form -sum_k p_k sin(2 chi_t k) of
<sigma_x2>.  The reference runs the protocol itself on a joint state with
the public gates: ion 2 starts in |g>, takes the carrier pi/2 pulse, then
the conditional phase chi_t on one mode, and sigma_x of ion 2 is read out.
The gates round the phases 0.5 chi_t k and 1.5 chi_t k separately, so the
two agree to 1e-12 plus a few ulps of the largest phase 2 chi_t nmax.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from phonon_optics import (  # noqa: E402
    MotionalState,
    QubitState,
    Truncation,
    carrier_half_pulse,
    conditional_phase,
    direct_mean_phonon,
    joint_state,
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


def protocol_sigma_x(state, chi_t, mode):
    js = joint_state(state, ion2=QubitState.ground())
    js = conditional_phase(mode, chi_t, carrier_half_pulse(js))
    return js.expect_sigma_x(2)


# the readout at nmax 40 and chi_t 777.77 was once refused at this 1.3e-12 gap
@example(make_fock(40, 0, Truncation(40)), 777.77, "c")
@settings(max_examples=300)
@given(dense_states(), st.floats(-4.0, 6.0).map(lambda x: 10.0**x), st.sampled_from("cr"))
def test_direct_readout_matches_the_protocol(state, chi_t, mode):
    est = direct_mean_phonon(state, chi_t, mode)
    tol = 1e-12 + 4 * EPS * 2 * chi_t * state.trunc.n_total_max
    assert abs(est.sigma_x_exact - protocol_sigma_x(state, chi_t, mode)) <= tol
    assert est.mean_n_linearized == -est.sigma_x_exact / (2 * chi_t)
    assert (est.chi_t, est.mode) == (chi_t, mode)
