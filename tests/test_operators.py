import math
import tracemalloc

import numpy as np
import pytest

from phonon_optics import (
    LabParams,
    MotionalState,
    QubitState,
    Truncation,
    apply,
    beam_splitter,
    carrier_half_pulse,
    conditional_phase,
    dense_annihilation,
    dense_jx,
    dense_jy,
    dense_number,
    expm_oracle,
    fidelity,
    jcm_unitary,
    joint_bs_propagator,
    joint_state,
    lab_to_angles,
    make_coherent,
    make_fock,
    phase_shifter,
)
from phonon_optics.operators import SIGMA_X, SIGMA_Z


def kron_qubit_motional(qubit_op, motional_op):
    return np.kron(qubit_op, motional_op)


def test_beam_splitter_zero_angle_is_identity():
    t = Truncation(5)
    for kind in ("b1", "b2"):
        m = beam_splitter(kind, 0.0, t).as_matrix()
        assert np.allclose(m, np.eye(t.dim), atol=1e-14)


def test_beam_splitter_single_phonon_closed_form():
    t = Truncation(4)
    out = apply(beam_splitter("b1", math.pi / 2, t), make_fock(1, 0, t))
    assert out.amplitude(1, 0) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
    assert out.amplitude(0, 1) == pytest.approx(-1j * math.sin(math.pi / 4), abs=1e-12)


def test_beam_splitter_two_phonon_closed_form():
    # Jy splitter at pi/2 on |1,1>: -(|2,0> - |0,2>)/sqrt(2)
    t = Truncation(4)
    out = apply(beam_splitter("b2", math.pi / 2, t), make_fock(1, 1, t))
    assert out.amplitude(1, 1) == pytest.approx(0.0, abs=1e-12)
    assert out.amplitude(2, 0) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    assert out.amplitude(0, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_beam_splitter_rejects_unknown_kind():
    with pytest.raises(ValueError):
        beam_splitter("b3", 0.1, Truncation(2))


@pytest.mark.parametrize("kind", ["b1", "b2"])
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.2, -1.1])
def test_beam_splitter_unitarity(kind, theta):
    assert beam_splitter(kind, theta, Truncation(12)).unitarity_defect() < 1e-12


def test_beam_splitter_number_conservation_exact():
    t = Truncation(6)
    u = beam_splitter("b1", 0.7, t)
    for m, n in ((0, 0), (1, 2), (3, 3), (6, 0)):
        out = apply(u, make_fock(m, n, t))
        ms, ns = t.mode_numbers()
        outside = (ms + ns) != (m + n)
        assert np.all(out.amps[outside] == 0)


def test_beam_splitter_group_composition():
    t = Truncation(6)
    u1 = beam_splitter("b1", 0.4, t).as_matrix()
    u2 = beam_splitter("b1", 1.1, t).as_matrix()
    u12 = beam_splitter("b1", 1.5, t).as_matrix()
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12


def test_beam_splitter_double_cover():
    # a 2 pi rotation multiplies the N-phonon block by (-1)^N
    t = Truncation(5)
    m = beam_splitter("b2", 2 * math.pi, t).as_matrix()
    for total in range(t.n_total_max + 1):
        sl = t.block(total)
        assert np.max(np.abs(m[sl, sl] - (-1) ** total * np.eye(total + 1))) < 1e-12


def _reference_block(total, which, theta):
    """exp(-i theta J) on the N = total block by a complex eigh of J."""
    gen = np.zeros((total + 1, total + 1), dtype=np.complex128)
    for m in range(total):
        hop = 0.5 * math.sqrt((m + 1) * (total - m))
        if which == "b1":
            gen[m + 1, m] = gen[m, m + 1] = hop
        else:
            gen[m + 1, m], gen[m, m + 1] = -1j * hop, 1j * hop
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


@pytest.mark.parametrize("kind", ["b1", "b2"])
def test_beam_splitter_matches_direct_block_eigh_at_nmax_60(kind):
    t = Truncation(60)
    rng = np.random.default_rng(60)
    amps = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
    state = MotionalState(t, amps / np.linalg.norm(amps))
    for theta in (0.37, math.pi / 2, -2.9):
        u = beam_splitter(kind, theta, t)
        assert u.blocks == ()
        dense = u.as_matrix()
        want = np.empty_like(state.amps)
        for total in range(t.n_total_max + 1):
            sl = t.block(total)
            ref = _reference_block(total, kind, theta)
            assert np.max(np.abs(dense[sl, sl] - ref)) <= 1e-13
            want[sl] = ref @ state.amps[sl]
        assert np.max(np.abs(apply(u, state).amps - want)) <= 1e-13


@pytest.mark.parametrize("kind", ["b1", "b2"])
def test_rotation_blocks_match_per_block_eigh_at_nmax_200(kind):
    # the dense matrix would take 6.6 GB here, so each block acts on a random
    # unit vector (block weight 1/sqrt(nmax + 1)) through apply
    t = Truncation(200)
    rng = np.random.default_rng(200)
    amps = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
    for total in range(t.n_total_max + 1):
        sl = t.block(total)
        amps[sl] /= np.linalg.norm(amps[sl]) * math.sqrt(t.n_total_max + 1)
    state = MotionalState(t, amps)
    theta = 0.61
    got = apply(beam_splitter(kind, theta, t), state).amps
    for total in range(t.n_total_max + 1):
        sl = t.block(total)
        want = _reference_block(total, kind, theta) @ amps[sl]
        err = np.max(np.abs(got[sl] - want)) * math.sqrt(t.n_total_max + 1)
        assert err <= 1e-12, total


def test_absurd_cutoff_is_refused_before_allocating(monkeypatch):
    # 32 dim + 8 (nmax + 1)^2 bytes is about 2.4e13 at this cutoff, far
    # beyond a fixed 1 TiB machine, so the host's own answer never matters
    monkeypatch.setattr("phonon_optics.fockspace._memory_limit_bytes", lambda: 2**40)
    with pytest.raises(ValueError, match="memory limit"):
        Truncation(10**6)
    # and with a tiny machine, a small cutoff is refused the same way
    monkeypatch.setattr("phonon_optics.fockspace._memory_limit_bytes", lambda: 100)
    with pytest.raises(ValueError, match="memory limit"):
        Truncation(5)
    # the estimate is 960 bytes at nmax 5 and 1288 at nmax 6
    monkeypatch.setattr("phonon_optics.fockspace._memory_limit_bytes", lambda: 1000)
    assert Truncation(5).dim == 21
    with pytest.raises(ValueError, match="needs 1.29e\\+03 bytes of state arrays"):
        Truncation(6)
    # where no limit is known, nothing is refused
    monkeypatch.setattr("phonon_optics.fockspace._memory_limit_bytes", lambda: None)
    assert Truncation(6).dim == 28


def test_applying_a_splitter_keeps_no_rotation_block():
    # each d block is dropped after use: the peak is a few blocks and the
    # state, and only the output amplitudes (325 kB here) outlive the call
    t = Truncation(200)
    s = make_coherent(2.0, -1.0, t)
    u = beam_splitter("b1", 0.7, t)
    tracemalloc.start()
    try:
        out = apply(u, s)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert current < out.amps.nbytes + 2**16


def test_same_generator_composition_on_states():
    t = Truncation(8)
    s = make_coherent(0.7, -0.2, t)
    once = apply(beam_splitter("b1", 0.9, t), apply(beam_splitter("b1", 0.4, t), s))
    joined = apply(beam_splitter("b1", 1.3, t), s)
    assert fidelity(once, joined) == pytest.approx(1.0, abs=1e-12)


def test_phase_shifter_identity_and_full_turn():
    t = Truncation(4)
    s = make_fock(2, 0, t)
    assert fidelity(apply(phase_shifter("c", 0.0, t), s), s) == pytest.approx(1.0)
    out = apply(phase_shifter("c", math.pi, t), s)
    # exp(2 pi i) on two phonons
    assert out.amplitude(2, 0) == pytest.approx(1.0, abs=1e-12)


def test_phase_shifter_relative_phase():
    t = Truncation(3)
    amps = np.zeros(t.dim, complex)
    amps[t.index(0, 0)] = amps[t.index(1, 0)] = 1 / math.sqrt(2)
    out = apply(phase_shifter("c", math.pi, t), MotionalState(t, amps))
    assert out.amplitude(0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out.amplitude(1, 0) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


def test_phase_shifter_acts_on_chosen_mode():
    t = Truncation(3)
    u = phase_shifter("r", 0.3, t)
    out = apply(u, make_fock(1, 2, t))
    assert out.amplitude(1, 2) == pytest.approx(np.exp(0.6j), abs=1e-12)


def test_apply_identity_and_truncation_mismatch():
    t = Truncation(4)
    s = make_coherent(0.5, 0.5, t)
    assert fidelity(apply(beam_splitter("b1", 0.0, t), s), s) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="truncation mismatch"):
        apply(beam_splitter("b1", 0.1, Truncation(5)), s)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_refused_on_apply(angle):
    t = Truncation(3)
    s = make_fock(1, 0, t)
    with np.errstate(invalid="ignore"):
        for u in (beam_splitter("b1", angle, t), beam_splitter("b2", angle, t),
                  phase_shifter("r", angle, t)):
            with pytest.raises(ValueError, match="non-finite amplitudes"):
                apply(u, s)


def test_apply_propagates_tail_bookkeeping():
    t = Truncation(3)
    s = make_coherent(1.0, 0.8, t)  # heavily truncated on purpose
    assert s.flagged
    out = apply(beam_splitter("b2", 0.9, t), s)
    assert out.tail_mass == s.tail_mass
    assert out.flagged
    assert abs(np.vdot(out.amps, out.amps).real - 1) < 1e-12


def test_apply_rejects_wrong_state_type():
    t = Truncation(3)
    js = joint_state(make_fock(0, 0, t), ion2=QubitState.ground())
    with pytest.raises(TypeError, match="MotionalState"):
        beam_splitter("b1", 0.2, t).apply(js)


def test_coherent_beam_splitter_product_rule():
    # Jy splitter maps |alpha, beta> to the rotated coherent product
    t = Truncation(40)
    for alpha, beta, theta in ((1.0, 0.5, math.pi / 2), (2.0, 1.0, 0.73), (0.5, 2.0, 1.9)):
        s = make_coherent(alpha, beta, t)
        out = apply(beam_splitter("b2", theta, t), s)
        c, d = math.cos(theta / 2), math.sin(theta / 2)
        target = make_coherent(alpha * c - beta * d, alpha * d + beta * c, t)
        assert fidelity(out, target) >= 1 - 1e-9 - 10 * s.tail_mass


def test_joint_propagator_factorizes_on_sigma_x_eigenstates():
    t = Truncation(6)
    psi = make_coherent(0.8, 0.3, t)
    theta = 1.234
    for kind, bs_kind, qubit, sign in (
        ("u1", "b1", QubitState.plus(), 1.0),
        ("u2", "b2", QubitState.plus(), 1.0),
        ("u1", "b1", QubitState.minus(), -1.0),
    ):
        js = joint_state(psi, ion1=qubit)
        out = joint_bs_propagator(kind, theta, js)
        assert out.qubit_fidelity(1, qubit) == pytest.approx(1.0, abs=1e-12)
        expected = apply(beam_splitter(bs_kind, sign * theta, t), psi)
        assert out.motional_fidelity(expected) == pytest.approx(1.0, abs=1e-12)


def test_joint_propagator_zero_angle():
    t = Truncation(4)
    js = joint_state(make_fock(1, 0, t), ion1=QubitState.ground())
    out = joint_bs_propagator("u1", 0.0, js)
    assert np.allclose(out.amps, js.amps, atol=1e-15)


def test_joint_propagator_entangles_ground_state():
    # |g> = (|+> - |->)/sqrt(2): branches get opposite rotation senses
    t = Truncation(4)
    theta = math.pi / 2
    psi = make_fock(1, 0, t)
    js = joint_state(psi, ion1=QubitState.ground())
    out = joint_bs_propagator("u1", theta, js)

    plus = apply(beam_splitter("b1", theta, t), psi).amps
    minus = apply(beam_splitter("b1", -theta, t), psi).amps
    want_g = 0.5 * (plus + minus)
    want_e = 0.5 * (plus - minus)
    assert np.allclose(out.amps[0], want_g, atol=1e-12)
    assert np.allclose(out.amps[1], want_e, atol=1e-12)

    # cross-check against the dense exponential of the joint generator
    gen = kron_qubit_motional(SIGMA_X, dense_jx(t))
    dense = expm_oracle(gen, theta).matrix
    assert np.max(np.abs(dense @ js.amps.ravel() - out.amps.ravel())) < 1e-10


def test_joint_propagator_requires_ion1():
    js = joint_state(make_fock(0, 0, Truncation(2)), ion2=QubitState.ground())
    with pytest.raises(ValueError, match="no qubit register"):
        joint_bs_propagator("u1", 0.5, js)


def test_conditional_phase_on_ground_is_phase_shifter():
    t = Truncation(5)
    psi = make_coherent(0.6, 0.9, t)
    phi = 0.8
    js = conditional_phase("c", 2 * phi, joint_state(psi, ion2=QubitState.ground()))
    assert js.qubit_fidelity(2, QubitState.ground()) == pytest.approx(1.0, abs=1e-14)
    assert js.motional_fidelity(apply(phase_shifter("c", phi, t), psi)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_conditional_phase_zero_angle():
    t = Truncation(3)
    js = joint_state(make_fock(2, 1, t), ion2=QubitState.plus())
    out = conditional_phase("r", 0.0, js)
    assert np.allclose(out.amps, js.amps, atol=1e-15)


def test_conditional_phase_excited_branch():
    # (sigma_z + 1/2) = 3/2 on |e>: chi_t = 2 pi / 3 on one phonon gives -1
    t = Truncation(3)
    js = joint_state(make_fock(1, 0, t), ion2=QubitState.excited())
    out = conditional_phase("c", 2 * math.pi / 3, js)
    idx = t.index(1, 0)
    assert out.amps[1, idx] == pytest.approx(np.exp(-1j * math.pi), abs=1e-12)


def test_conditional_phase_matches_dense_oracle():
    t = Truncation(5)
    chi_t = 0.37
    gen = kron_qubit_motional(SIGMA_Z + 0.5 * np.eye(2), dense_number(t, "c"))
    dense = expm_oracle(gen, chi_t).matrix
    psi = make_coherent(0.4, 0.7, t)
    js = joint_state(psi, ion2=QubitState.of(0.6, 0.8))
    out = conditional_phase("c", chi_t, js)
    assert np.max(np.abs(dense @ js.amps.ravel() - out.amps.ravel())) < 1e-10


def test_carrier_half_pulse_default_phase():
    t = Truncation(2)
    js = carrier_half_pulse(joint_state(make_fock(0, 0, t), ion2=QubitState.ground()))
    idx = t.index(0, 0)
    assert js.amps[0, idx] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert js.amps[1, idx] == pytest.approx(-1j / math.sqrt(2), abs=1e-15)


def test_expm_oracle_zero_generator():
    u = expm_oracle(np.zeros((4, 4)), 1.0)
    assert np.allclose(u.matrix, np.eye(4))
    assert u.unitarity_defect() < 1e-12


def test_expm_oracle_matches_beam_splitter():
    t = Truncation(2)
    theta = math.pi / 2
    dense = expm_oracle(dense_jx(t), theta).matrix
    assert np.max(np.abs(dense - beam_splitter("b1", theta, t).as_matrix())) < 1e-10


def test_expm_oracle_matches_phase_shifter():
    # exp(-i n t) with t = phi equals the phase shifter at -phi
    t = Truncation(3)
    phi = 0.9
    dense = expm_oracle(dense_number(t, "c"), phi).matrix
    assert np.max(np.abs(dense - phase_shifter("c", -phi, t).as_matrix())) < 1e-12


def test_expm_oracle_anti_hermitian_branch():
    # exp(s (a+ b - a b+)) = exp(2 i s Jy) = B2(-2 s)
    t = Truncation(4)
    s = 0.31
    gen = 2j * dense_jy(t)
    u = expm_oracle(gen, s)
    want = beam_splitter("b2", -2 * s, t).as_matrix()
    assert np.max(np.abs(u.matrix - want)) < 1e-10


def test_passive_operator_composes_with_passive_operators_only():
    t = Truncation(3)
    bs = beam_splitter("b1", 0.3, t)
    with pytest.raises(TypeError):
        bs @ jcm_unitary(1.0, 0.5, t, "single")
    with pytest.raises(TypeError):
        bs @ expm_oracle(dense_jx(t), 0.3)


def test_expm_oracle_rejects_oversize_and_non_normal():
    with pytest.raises(ValueError, match="exceeds cap"):
        expm_oracle(np.eye(600), 1.0)
    with pytest.raises(ValueError, match="neither Hermitian"):
        expm_oracle(np.triu(np.ones((3, 3))), 1.0)


# laboratory parameter conversion -------------------------------------------


def test_lab_to_angles_zero_rabi():
    p = LabParams(Omega=0.0, eta=0.1, eta_r=0.076, Delta=1e6, Delta_r=1e6,
                  Omega_r=0.0, t=1e-3)
    a = lab_to_angles(p)
    assert a.theta == a.phi == a.phi_r == a.chi == a.chi_r == a.lam == a.g == 0.0


def test_lab_to_angles_quarter_turn():
    Omega, eta = 2 * math.pi * 50e3, 0.1
    eta_r = 3 ** (-0.25) * eta
    t = math.pi / (4 * Omega * eta * eta_r)
    p = LabParams.linked(Omega=Omega, eta=eta, Delta=2 * math.pi * 1e6,
                         Delta_r=2 * math.pi * 1e6, Omega_r=Omega, t=t)
    a = lab_to_angles(p)
    assert a.theta == pytest.approx(math.pi / 2, rel=1e-12)
    assert a.lam == pytest.approx(eta * Omega / 2, rel=1e-12)
    assert a.g == pytest.approx(Omega * eta * eta_r, rel=1e-12)


def test_lab_to_angles_parity_flip_time():
    Omega, eta = 1e5, 0.12
    Delta = 3e6
    chi = eta**2 * Omega**2 / (2 * Delta)
    p = LabParams.linked(Omega=Omega, eta=eta, Delta=Delta, Delta_r=Delta,
                         Omega_r=Omega, t=2 * math.pi / chi)
    assert lab_to_angles(p).phi == pytest.approx(math.pi, rel=1e-12)


def test_lab_to_angles_rejects_zero_detuning():
    p = LabParams(1.0, 0.1, 0.076, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="detunings"):
        lab_to_angles(p)


def test_linked_trap_relation():
    p = LabParams.linked(1.0, 0.2, 1.0, 1.0, 1.0, 1.0)
    assert p.has_linked_modes()
    assert p.eta_r == pytest.approx(3 ** (-0.25) * 0.2, abs=1e-15)


def test_dense_annihilation_action():
    t = Truncation(3)
    a = dense_annihilation(t, "c")
    vec = np.zeros(t.dim)
    vec[t.index(2, 1)] = 1.0
    out = a @ vec
    assert out[t.index(1, 1)] == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("mode", ["c", "r"])
def test_dense_annihilation_matches_fock_action(mode):
    t = Truncation(7)
    want = np.zeros((t.dim, t.dim))
    for m in range(t.n_total_max + 1):
        for n in range(t.n_total_max + 1 - m):
            if mode == "c" and m >= 1:
                want[t.index(m - 1, n), t.index(m, n)] = math.sqrt(m)
            if mode == "r" and n >= 1:
                want[t.index(m, n - 1), t.index(m, n)] = math.sqrt(n)
    assert np.array_equal(dense_annihilation(t, mode), want)
