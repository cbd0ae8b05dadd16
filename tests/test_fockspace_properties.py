"""Property test of ``expect`` against dense observables.

``expect`` reads <Jx> and <Jy> as the real and imaginary parts of
<a+ b> from one hop table, and the diagonal observables from the mode
numbers.  The oracle is <psi|O|psi> with the dense matrices of
``tests/oracles.py`` on random complex states, so a sign or conjugation
slip in either hop direction shows up as a nonzero <Jy> of the wrong sign.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phonon_optics import (
    MotionalState,
    Truncation,
    expect,
)
from oracles import dense_jx, dense_jy, dense_jz, dense_number


@given(st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_expect_matches_dense_oracle(nmax, seed):
    trunc = Truncation(nmax)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    state = MotionalState(trunc, amps / np.linalg.norm(amps))
    jz = dense_jz(trunc)
    oracle = {
        "jx": dense_jx(trunc),
        "jy": dense_jy(trunc),
        "jz": jz,
        "jz2": jz @ jz,
        "nc": dense_number(trunc, "c"),
        "nr": dense_number(trunc, "r"),
    }
    for obs, matrix in oracle.items():
        want = np.vdot(state.amps, matrix @ state.amps)
        assert abs(want.imag) < 1e-12
        assert expect(state, obs) == pytest.approx(want.real, abs=1e-12)
