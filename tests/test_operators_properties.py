"""Property tests of the passive operators: splitters, phase shifters and
their products.

The oracle is the dense eigendecomposition exponential of the generator on
the whole truncated space (``oracles.expm_oracle``); the operators under test hold
a 2x2 one-phonon matrix and apply it as two diagonal phases around one Jy
rotation, block by block.  Those blocks are built by a recursion, so each
is checked on its own for orthogonality and against the oracle.  Chains are
folded with ``@`` and checked against sequential application and the
product of oracle factors, including the Euler-angle edge cases beta = 0
and beta = pi.  Blocks whose tail weighs less than ``WEIGHT_FLOOR`` skip
the rotation; that is checked against the full rotation.  At cutoffs up to
1000, where no dense matrix fits, the oracle is the coherent state at
M (alpha, beta).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from phonon_optics import (  # noqa: E402
    MotionalState,
    Truncation,
    apply,
    beam_splitter,
    make_coherent,
    phase_shifter,
)
from phonon_optics import operators  # noqa: E402
from phonon_optics.operators import WEIGHT_FLOOR, UnitaryOperator, _small_d  # noqa: E402
from oracles import (  # noqa: E402
    as_matrix,
    dense_jx,
    dense_jy,
    dense_number,
    expm_oracle,
    unitarity_defect,
)

angles = st.floats(-4 * math.pi, 4 * math.pi)
kinds = st.sampled_from(["b1", "b2"])
truncations = st.builds(Truncation, st.integers(0, 8))
parts = st.floats(-1.0, 1.0)

DENSE = {"b1": dense_jx, "b2": dense_jy}
COHERENT_ORACLE_TOL = 1e-14  # worst seen: 3.9e-15 over 1,800 random chains, nmax <= 1000


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
    want = expm_oracle(DENSE[kind](state.trunc), theta)
    u = beam_splitter(kind, theta, state.trunc)
    assert np.max(np.abs(as_matrix(u) - want)) < 1e-12
    assert np.max(np.abs(apply(u, state).amps - want @ state.amps)) < 1e-12


@given(truncations, kinds, angles)
def test_splitter_is_unitary(trunc, kind, theta):
    assert unitarity_defect(beam_splitter(kind, theta, trunc)) < 1e-12


@given(states(), kinds, angles, angles)
def test_splitter_angles_add(state, kind, a, b):
    twice = apply(beam_splitter(kind, b, state.trunc),
                  apply(beam_splitter(kind, a, state.trunc), state))
    once = apply(beam_splitter(kind, a + b, state.trunc), state)
    assert np.max(np.abs(twice.amps - once.amps)) < 1e-12


@given(st.integers(0, 20), st.integers(0, 2**32 - 1), kinds, angles)
def test_reversed_splitter_is_the_parity_mirror(nmax, seed, kind, theta):
    # P = (-1)^{a+ a} turns a into -a and flips Jx and Jy, so
    # B(-theta) = P B(theta) P: the joint propagator rotates both sigma_x arms with it
    trunc = Truncation(nmax)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    state = MotionalState(trunc, amps / np.linalg.norm(amps))
    parity = (-1.0) ** trunc.phonons("c")
    mirrored = apply(beam_splitter(kind, theta, trunc), state.with_amps(parity * state.amps))
    want = apply(beam_splitter(kind, -theta, trunc), state)
    assert np.max(np.abs(parity * mirrored.amps - want.amps)) < 1e-13


@given(truncations, kinds, angles)
def test_splitter_double_cover(trunc, kind, theta):
    # a 2 pi turn is (-1)^N on the N-phonon block
    ms, ns = trunc.mode_numbers()
    parity = (-1.0) ** (ms + ns)
    turned = as_matrix(beam_splitter(kind, theta + 2 * math.pi, trunc))
    base = as_matrix(beam_splitter(kind, theta, trunc))
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
    assert np.max(np.abs(d - expm_oracle(jy, beta))) < 1e-12


@settings(max_examples=40)
@example(0.0, 200)
@example(math.pi, 200)
@example(-math.pi, 200)
@example(1e-300, 200)
@example(math.pi - 1e-9, 200)
@example(2.0, 400)
@given(angles, st.integers(0, 200))
def test_small_d_blocks_rotate_jz_and_keep_unit_columns(beta, top):
    # Every block d_N satisfies Jz d = d (cos beta Jz - sin beta Jx) and has
    # unit columns, each within 1e-14 N; both are O(N^2) since Jx is
    # tridiagonal, so this reaches cutoffs far beyond the dense oracle.  The
    # worst values seen over 51 angles up to N = 300 are 1.2e-16 N (residual)
    # and 3.3e-16 N (column drift), so the bound keeps a margin of 30 or more.
    cos_b, sin_b = math.cos(beta), math.sin(beta)
    root = np.sqrt(np.arange(top + 1, dtype=np.float64))
    blocks = 0
    for total, d in enumerate(_small_d(beta, top)):
        jz = np.arange(total + 1) - 0.5 * total
        hop = (0.5 * sin_b) * root[1 : total + 1] * root[total:0:-1]  # sin(beta) Jx hops
        residual = (jz[:, None] - cos_b * jz) * d
        residual[:, 1:] += d[:, :-1] * hop
        residual[:, :-1] += d[:, 1:] * hop
        assert np.max(np.abs(residual)) <= 1e-14 * total, total
        drift = np.max(np.abs(np.einsum("ij,ij->j", d, d) - 1.0))
        assert drift <= 1e-14 * total, total
        blocks += 1
    assert blocks == top + 1


@given(states(), kinds, angles)
def test_apply_preserves_norm(state, kind, theta):
    out = apply(beam_splitter(kind, theta, state.trunc), state)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


@st.composite
def planted_states(draw):
    """(state, k, tail): a unit state on blocks 0..k plus amplitudes of
    total norm ``tail``, below WEIGHT_FLOOR, on every block above k."""
    trunc = draw(st.builds(Truncation, st.integers(1, 10)))
    k = draw(st.integers(0, trunc.n_total_max - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    low = trunc.block(k).stop
    tail = draw(st.floats(0.01, 0.99)) * WEIGHT_FLOOR
    amps[:low] /= np.linalg.norm(amps[:low])
    amps[low:] *= tail / np.linalg.norm(amps[low:])
    return MotionalState(trunc, amps), k, tail


@given(planted_states(), kinds, angles)
def test_skipping_weightless_blocks_moves_the_output_by_at_most_twice_their_norm(
    planted, kind, theta
):
    state, k, tail = planted
    u = beam_splitter(kind, theta, state.trunc)
    got = apply(u, state).amps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "WEIGHT_FLOOR", 0.0)  # the full rotation, d_0..d_nmax
        full = apply(u, state).amps
    low = state.trunc.block(k).stop
    # the blocks above k only took the diagonal phases, so their moduli stay
    assert np.allclose(np.abs(got[low:]), np.abs(state.amps[low:]), rtol=1e-12, atol=0.0)
    assert np.array_equal(got[:low], full[:low])
    assert np.linalg.norm(got - full) <= 2.0 * tail * (1.0 + 1e-12)


# passive chains --------------------------------------------------------------

elements = st.tuples(st.sampled_from(["bs1", "bs2", "ps c", "ps r"]), angles)


def _operator(element, trunc):
    """The passive operator of one chain element."""
    verb, angle = element
    if verb.startswith("ps"):
        return phase_shifter(verb[-1], angle, trunc)
    return beam_splitter("b" + verb[2], angle, trunc)


def _element(element, trunc):
    """(operator, dense oracle matrix) of one chain element."""
    verb, angle = element
    if verb.startswith("ps"):
        dense = expm_oracle(dense_number(trunc, verb[-1]), -angle)
    else:
        dense = expm_oracle((dense_jx if verb == "bs1" else dense_jy)(trunc), angle)
    return _operator(element, trunc), dense


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
    matrix = as_matrix(fused)
    assert np.max(np.abs(matrix - want)) < 1e-12
    if trunc.n_total_max >= 1:
        # the one-phonon block is M itself, in the order (|0, 1>, |1, 0>)
        sl = trunc.block(1)
        assert np.max(np.abs(matrix[sl, sl][::-1, ::-1] - fused.matrix)) < 1e-12


amplitudes = st.complex_numbers(max_magnitude=5.0)  # up to 50 phonons in all


@settings(max_examples=20)
@example(1000, 3 - 2j, 0.5j, [("bs1", 0.7), ("ps c", 2.0), ("bs2", -1.3)])
@given(st.integers(0, 1000), amplitudes, amplitudes, st.lists(elements, min_size=1, max_size=4))
def test_passive_chain_maps_a_coherent_state_to_the_coherent_state_at_m_alpha(
    nmax, alpha, beta, chain
):
    """A passive M conserves N and the truncation is on N, so it maps the
    truncated |alpha, beta> to the truncated |M (alpha, beta)> exactly
    (Yurke, McCall & Klauder, PRA 33, 4033 (1986)); no dense matrix needed."""
    trunc = Truncation(nmax)
    fused = None
    for element in chain:
        u = _operator(element, trunc)
        fused = u if fused is None else u @ fused
    got = apply(fused, make_coherent(alpha, beta, trunc)).amps
    want = make_coherent(*(fused.matrix @ np.array([alpha, beta])), trunc).amps
    assert np.max(np.abs(got - want)) < COHERENT_ORACLE_TOL


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
    assert np.max(np.abs(as_matrix(fused) - want)) < 1e-12
    assert calls == []


@pytest.mark.parametrize(
    "kind, exact",
    [("b1", [[0, -1j], [-1j, 0]]), ("b2", [[0, -1], [1, 0]])],
)
def test_half_turn_splitters(kind, exact):
    # beta = pi: the angled splitter has |a| ~ 1e-16, the exact matrix a = 0
    trunc = Truncation(8)
    dense = dense_jx if kind == "b1" else dense_jy
    want = expm_oracle(dense(trunc), math.pi)
    exact_op = UnitaryOperator(trunc, np.array(exact, dtype=complex))
    for u in (beam_splitter(kind, math.pi, trunc), exact_op):
        assert np.max(np.abs(as_matrix(u) - want)) < 1e-12


def test_mode_swap_is_exact():
    # a+ <-> b+ has det -1, so delta = pi/2 and beta = pi with a = 0
    trunc = Truncation(8)
    swap = UnitaryOperator(trunc, np.array([[0, 1], [1, 0]], dtype=complex))
    ms, ns = trunc.mode_numbers()
    want = np.zeros((trunc.dim, trunc.dim))
    want[[trunc.index(n, m) for m, n in zip(ms, ns)], np.arange(trunc.dim)] = 1.0
    assert np.max(np.abs(as_matrix(swap) - want)) < 1e-12


def test_full_turns_of_the_splitter():
    trunc = Truncation(8)
    ms, ns = trunc.mode_numbers()
    parity = np.diag((-1.0) ** (ms + ns))
    assert np.max(np.abs(as_matrix(beam_splitter("b1", 2 * math.pi, trunc)) - parity)) < 1e-12
    identity = as_matrix(beam_splitter("b1", 4 * math.pi, trunc))
    assert np.max(np.abs(identity - np.eye(trunc.dim))) < 1e-12


def test_composing_mismatched_truncations_is_refused():
    with pytest.raises(ValueError, match="truncation mismatch"):
        beam_splitter("b1", 0.3, Truncation(4)) @ phase_shifter("c", 0.2, Truncation(5))
