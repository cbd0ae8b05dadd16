"""Property tests of the beam splitters exp(-i theta Jx) and exp(-i theta Jy).

The oracle is the dense eigendecomposition exponential of the generator on
the whole truncated space (``expm_oracle``); the splitters under test apply
one cached rotation basis per truncation block by block.  That basis is
built by a recursion, so its two defining properties (orthogonality and the
Jx eigen-equation) are checked on their own, block by block.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from phonon_optics import (  # noqa: E402
    MotionalState,
    Truncation,
    apply,
    beam_splitter,
    dense_jx,
    dense_jy,
    expm_oracle,
)
from phonon_optics.operators import _jx_basis  # noqa: E402

angles = st.floats(-4 * math.pi, 4 * math.pi)
kinds = st.sampled_from(["b1", "b2"])
truncations = st.builds(Truncation, st.integers(0, 8))
parts = st.floats(-1.0, 1.0)

DENSE = {"b1": dense_jx, "b2": dense_jy}


@st.composite
def states(draw):
    trunc = draw(truncations)
    re = np.array(draw(st.lists(parts, min_size=trunc.dim, max_size=trunc.dim)))
    im = np.array(draw(st.lists(parts, min_size=trunc.dim, max_size=trunc.dim)))
    amps = re + 1j * im
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return MotionalState(trunc, amps / norm)


@given(states(), kinds, angles)
def test_splitter_matches_dense_oracle(state, kind, theta):
    want = expm_oracle(DENSE[kind](state.trunc), theta).matrix
    u = beam_splitter(kind, theta, state.trunc)
    assert np.max(np.abs(u.as_matrix() - want)) < 1e-12
    assert np.max(np.abs(apply(u, state).amps - want @ state.amps)) < 1e-12


@given(truncations, kinds, angles)
def test_splitter_is_unitary(trunc, kind, theta):
    assert beam_splitter(kind, theta, trunc).unitarity_defect() < 1e-12


@given(states(), kinds, angles, angles)
def test_splitter_angles_add(state, kind, a, b):
    twice = apply(beam_splitter(kind, b, state.trunc),
                  apply(beam_splitter(kind, a, state.trunc), state))
    once = apply(beam_splitter(kind, a + b, state.trunc), state)
    assert np.max(np.abs(twice.amps - once.amps)) < 1e-12


@given(truncations, kinds, angles)
def test_splitter_double_cover(trunc, kind, theta):
    # a 2 pi turn is (-1)^N on the N-phonon block
    ms, ns = trunc.mode_numbers()
    parity = (-1.0) ** (ms + ns)
    turned = beam_splitter(kind, theta + 2 * math.pi, trunc).as_matrix()
    base = beam_splitter(kind, theta, trunc).as_matrix()
    assert np.max(np.abs(turned - parity[:, None] * base)) < 1e-12


@given(st.integers(0, 80))
def test_basis_block_is_orthogonal_jx_eigenbasis(total):
    v = _jx_basis(80)[total]
    m = np.arange(total)
    hop = 0.5 * np.sqrt((m + 1.0) * (total - m))  # <m+1, n-1| Jx |m, n>
    jx = np.diag(hop, 1) + np.diag(hop, -1)
    assert np.max(np.abs(v.T @ v - np.eye(total + 1))) < 1e-12
    assert np.max(np.abs(jx @ v - v * (np.arange(total + 1) - 0.5 * total))) < 1e-12


@given(states(), kinds, angles)
def test_apply_preserves_norm(state, kind, theta):
    out = apply(beam_splitter(kind, theta, state.trunc), state)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12
