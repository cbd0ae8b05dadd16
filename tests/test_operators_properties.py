"""Property tests of the passive operators: splitters, phase shifters and
their products.

The oracle is the dense eigendecomposition exponential of the generator on
the whole truncated space (``expm_oracle``); the operators under test hold
a 2x2 one-phonon matrix and apply it as two diagonal phases around one Jy
rotation, block by block.  Those blocks are built by a recursion, so each
is checked on its own for orthogonality and against the oracle.  Chains are
folded with ``@`` and checked against sequential application and the
product of oracle factors, including the Euler-angle edge cases beta = 0
and beta = pi.
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
    dense_number,
    expm_oracle,
    phase_shifter,
)
from phonon_optics import operators  # noqa: E402
from phonon_optics.operators import UnitaryOperator, _small_d  # noqa: E402

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


@given(angles, st.integers(0, 80))
def test_small_d_block_is_orthogonal_and_matches_oracle(beta, total):
    # Jy is block diagonal, so block N of its exponential is the exponential
    # of its block N: the tridiagonal <m+1, n-1| Jy |m, n> = -i sqrt((m+1) n)/2
    m = np.arange(total)
    hop = 0.5 * np.sqrt((m + 1.0) * (total - m))
    jy = np.diag(1j * hop, 1) + np.diag(-1j * hop, -1)
    d = list(_small_d(beta, total))[total]
    assert d.dtype == np.float64
    assert np.max(np.abs(d.T @ d - np.eye(total + 1))) < 1e-12
    assert np.max(np.abs(d - expm_oracle(jy, beta).matrix)) < 1e-12


@given(states(), kinds, angles)
def test_apply_preserves_norm(state, kind, theta):
    out = apply(beam_splitter(kind, theta, state.trunc), state)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


# passive chains --------------------------------------------------------------

elements = st.tuples(st.sampled_from(["bs1", "bs2", "ps c", "ps r"]), angles)


def _element(element, trunc):
    """(operator, dense oracle matrix) of one chain element."""
    verb, angle = element
    if verb.startswith("ps"):
        mode = verb[-1]
        dense = expm_oracle(dense_number(trunc, mode), -angle).matrix
        return phase_shifter(mode, angle, trunc), dense
    dense = dense_jx if verb == "bs1" else dense_jy
    return beam_splitter("b" + verb[2], angle, trunc), expm_oracle(dense(trunc), angle).matrix


@given(states(), st.lists(elements, min_size=1, max_size=6))
def test_folded_chain_matches_sequential_and_oracle(state, chain):
    trunc = state.trunc
    fused, step, want = None, state, np.eye(trunc.dim)
    for element in chain:
        u, dense = _element(element, trunc)
        fused = u if fused is None else u @ fused
        step = apply(u, step)
        want = dense @ want
    got = apply(fused, state).amps
    assert np.max(np.abs(got - step.amps)) < 1e-12
    assert np.max(np.abs(got - want @ state.amps)) < 1e-12
    matrix = fused.as_matrix()
    assert np.max(np.abs(matrix - want)) < 1e-12
    if trunc.n_total_max >= 1:
        # the one-phonon block is M itself, in the order (|0, 1>, |1, 0>)
        sl = trunc.block(1)
        assert np.max(np.abs(matrix[sl, sl][::-1, ::-1] - fused.matrix)) < 1e-12


def test_pure_phase_chain_skips_the_rotation(monkeypatch):
    trunc = Truncation(8)
    chain = [("ps c", 0.7), ("ps r", -2.1), ("bs1", 0.0), ("ps c", 5.0), ("bs2", 0.0)]
    ops = [_element(e, trunc) for e in chain]
    fused, want = ops[0][0], ops[0][1]
    for u, dense in ops[1:]:
        fused, want = u @ fused, dense @ want
    assert fused.matrix[0, 1] == fused.matrix[1, 0] == 0  # beta = 0 exactly
    calls = []
    small_d = operators._small_d
    monkeypatch.setattr(operators, "_small_d", lambda *args: calls.append(args) or small_d(*args))
    assert np.max(np.abs(fused.as_matrix() - want)) < 1e-12
    assert calls == []


@pytest.mark.parametrize(
    "kind, exact",
    [("b1", [[0, -1j], [-1j, 0]]), ("b2", [[0, -1], [1, 0]])],
)
def test_half_turn_splitters(kind, exact):
    # beta = pi: the angled splitter has |a| ~ 1e-16, the exact matrix a = 0
    trunc = Truncation(8)
    dense = dense_jx if kind == "b1" else dense_jy
    want = expm_oracle(dense(trunc), math.pi).matrix
    exact_op = UnitaryOperator(trunc, np.array(exact, dtype=complex))
    for u in (beam_splitter(kind, math.pi, trunc), exact_op):
        assert np.max(np.abs(u.as_matrix() - want)) < 1e-12


def test_mode_swap_is_exact():
    # a+ <-> b+ has det -1, so delta = pi/2 and beta = pi with a = 0
    trunc = Truncation(8)
    swap = UnitaryOperator(trunc, np.array([[0, 1], [1, 0]], dtype=complex))
    ms, ns = trunc.mode_numbers()
    want = np.zeros((trunc.dim, trunc.dim))
    want[[trunc.index(n, m) for m, n in zip(ms, ns)], np.arange(trunc.dim)] = 1.0
    assert np.max(np.abs(swap.as_matrix() - want)) < 1e-12


def test_full_turns_of_the_splitter():
    trunc = Truncation(8)
    ms, ns = trunc.mode_numbers()
    parity = np.diag((-1.0) ** (ms + ns))
    assert np.max(np.abs(beam_splitter("b1", 2 * math.pi, trunc).as_matrix() - parity)) < 1e-12
    identity = beam_splitter("b1", 4 * math.pi, trunc).as_matrix()
    assert np.max(np.abs(identity - np.eye(trunc.dim))) < 1e-12


def test_composing_mismatched_truncations_is_refused():
    with pytest.raises(ValueError, match="truncation mismatch"):
        beam_splitter("b1", 0.3, Truncation(4)) @ phase_shifter("c", 0.2, Truncation(5))
