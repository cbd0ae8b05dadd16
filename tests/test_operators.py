import importlib
import math
import pkgutil
import re
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
    direct_mean_phonon,
    expect,
    fidelity,
    jcm_unitary,
    joint_bs_propagator,
    joint_state,
    lab_to_angles,
    make_coherent,
    make_fock,
    number_distributions,
    phase_shifter,
)
import phonon_optics
from phonon_optics import operators
from oracles import (
    SIGMA_X,
    SIGMA_Z,
    as_matrix,
    dense_annihilation,
    dense_jx,
    dense_jy,
    dense_number,
    expm_oracle,
    unitarity_defect,
)


def kron_qubit_motional(qubit_op, motional_op):
    return np.kron(qubit_op, motional_op)


def test_beam_splitter_zero_angle_is_identity():
    t = Truncation(5)
    for kind in ("b1", "b2"):
        m = as_matrix(beam_splitter(kind, 0.0, t))
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
    assert unitarity_defect(beam_splitter(kind, theta, Truncation(12))) < 1e-12


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
    u1 = as_matrix(beam_splitter("b1", 0.4, t))
    u2 = as_matrix(beam_splitter("b1", 1.1, t))
    u12 = as_matrix(beam_splitter("b1", 1.5, t))
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12


def test_beam_splitter_double_cover():
    # a 2 pi rotation multiplies the N-phonon block by (-1)^N
    t = Truncation(5)
    m = as_matrix(beam_splitter("b2", 2 * math.pi, t))
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
        dense = as_matrix(u)
        want = np.empty_like(state.amps)
        for total in range(t.n_total_max + 1):
            sl = t.block(total)
            ref = _reference_block(total, kind, theta)
            assert np.max(np.abs(dense[sl, sl] - ref)) <= 1e-13
            want[sl] = ref @ state.amps[sl]
        assert np.max(np.abs(apply(u, state).amps - want)) <= 1e-13


@pytest.mark.parametrize("kind", ["b1", "b2"])
def test_rotation_blocks_match_per_block_eigh_at_nmax_200(kind, drawn_blocks):
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
    assert drawn_blocks == [t.n_total_max + 1]  # every block carries weight


@pytest.mark.parametrize("top", [0, 1, 17, 59, 60])
def test_rotation_stops_at_the_last_weighted_block(top, drawn_blocks):
    t = Truncation(60)
    rng = np.random.default_rng(top)
    amps = np.zeros(t.dim, dtype=np.complex128)
    low = t.block(top).stop
    amps[:low] = rng.normal(size=low) + 1j * rng.normal(size=low)
    state = MotionalState(t, amps / np.linalg.norm(amps))
    u = beam_splitter("b1", 0.8, t)
    got = apply(u, state).amps
    assert drawn_blocks == [top + 1]
    assert not got[low:].any()
    # as_matrix passes the identity, which weights every block
    want = as_matrix(u) @ state.amps
    assert drawn_blocks == [top + 1, t.n_total_max + 1]
    assert np.max(np.abs(got - want)) <= 1e-13


def test_zero_state_draws_only_the_trivial_block(drawn_blocks):
    t = Truncation(20)
    zero = np.zeros((2, t.dim), dtype=np.complex128)
    assert not operators._apply_passive(zero, operators._splitter("b2", 1.1), t).any()
    assert drawn_blocks == [1]  # d_0 = [[1]]


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
    with pytest.raises(ValueError, match="arrays of n_total_max = 6 need about 1.29e\\+03 bytes"):
        Truncation(6)
    # where no limit is known, nothing is refused
    monkeypatch.setattr("phonon_optics.fockspace._memory_limit_bytes", lambda: None)
    assert Truncation(6).dim == 28


def _traced_peak(call):
    """Peak heap bytes traced while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("nmax", [100, 300])
def test_truncation_peak_stays_within_its_own_check(nmax):
    # the layout arrays are built after the memory check that counts them
    dim = (nmax + 1) * (nmax + 2) // 2
    assert _traced_peak(lambda: Truncation(nmax)) <= 32 * dim + 8 * (nmax + 1) ** 2


def test_no_table_outlives_its_truncation():
    # each basis array belongs to the object that uses it, so a ladder of
    # cutoffs, each dropped after use, leaves nothing traced behind
    def use(nmax):
        t = Truncation(nmax)
        s = make_coherent(1.5, -0.5, t)
        expect(s, "jx")
        number_distributions(s)
        jcm_unitary(1.0, 0.5, t, "single")
        apply(beam_splitter("b1", 0.7, t), s)

    use(2)  # whatever a first call sets up once is not a table
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for nmax in range(43, 124, 10):
            use(nmax)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 2**20
    for info in pkgutil.iter_modules(phonon_optics.__path__):
        module = importlib.import_module(f"phonon_optics.{info.name}")
        assert [name for name, v in vars(module).items() if hasattr(v, "cache_info")] == []


def test_passive_rotation_peak_is_refused_before_allocating(monkeypatch):
    # nmax 300: the state arrays (2.2 MB) fit in 4 MB.  Rotating every block
    # of |0, 300> needs about 7.1 MB; |1, 0> stops at block 1 and needs 3.3 MB.
    t = Truncation(300)
    u = beam_splitter("b1", 0.3, t)
    heavy, light = make_fock(0, 300, t), make_fock(1, 0, t)
    monkeypatch.setattr("phonon_optics.fockspace._memory_limit_bytes", lambda: 4 * 10**6)

    def refused():
        with pytest.raises(ValueError, match=r"rotation up to N = 300 needs about 7.14e\+06 bytes"):
            apply(u, heavy)

    # only per-basis arrays (jz, the block weights) precede the check; the
    # rotation itself would peak near 7.7 states
    assert _traced_peak(refused) < 3 * heavy.amps.nbytes
    assert abs(apply(u, light).amplitude(1, 0)) == pytest.approx(math.cos(0.15))


@pytest.mark.parametrize("nmax, top, batch", [(100, 100, 1), (300, 300, 1), (300, 40, 1),
                                              (100, 100, 4), (20, 20, 231)])
def test_passive_preflight_bounds_the_measured_peak(nmax, top, batch):
    t = Truncation(nmax)
    rng = np.random.default_rng(nmax + top + batch)
    arr = np.zeros((batch, t.dim), dtype=np.complex128)
    low = t.block(top).stop
    arr[:, :low] = rng.normal(size=(batch, low)) + 1j * rng.normal(size=(batch, low))
    m = operators._splitter("b2", 0.7) @ np.diag([np.exp(0.4j), 1.0])
    peak = _traced_peak(lambda: operators._apply_passive(arr, m, t))
    assert peak <= operators._passive_need(arr.nbytes, top, t)


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
    # refused where the operator is built, so no record holds a NaN angle
    t = Truncation(3)
    js = joint_state(make_fock(1, 0, t), ion1=QubitState.plus(), ion2=QubitState.ground())
    for build, what in ((lambda: beam_splitter("b1", angle, t), "theta"),
                        (lambda: beam_splitter("b2", angle, t), "theta"),
                        (lambda: phase_shifter("r", angle, t), "phi"),
                        (lambda: joint_bs_propagator("u1", angle, js), "theta"),
                        (lambda: conditional_phase("c", angle, js), "chi_t"),
                        (lambda: jcm_unitary(angle, 1.0, t, "single"), "coupling"),
                        (lambda: jcm_unitary(1.0, angle, t, "single"), "t")):
        with pytest.raises(ValueError, match=f"^{what} must be finite, got {angle!r}$"):
            build()
    with pytest.raises(ValueError, match="^probe angle coupling \\* t \\* sqrt\\(k\\) "
                                         "must be finite, got inf$"):
        jcm_unitary(1e200, 1e200, t, "two")
    # a one-phonon matrix given directly is still refused on apply
    u = operators.UnitaryOperator(t, np.diag([complex(angle), 1.0]))
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        apply(u, make_fock(1, 0, t))


def test_a_probe_without_coupled_pairs_has_no_angle_to_overflow():
    # at nmax 0 no pair couples, so the overflowing coupling * t scales nothing
    assert jcm_unitary(1e200, 1e200, Truncation(0), "two").angle.size == 0


@pytest.mark.parametrize("call, phase", [
    (lambda js: conditional_phase("c", 1e308, js), "phase 1.5 * chi_t * nmax"),
    (lambda js: direct_mean_phonon(make_fock(1, 0, js.trunc), 1e308),
     "readout phase 2 * chi_t * nmax"),
], ids=["conditional_phase", "direct_mean_phonon"])
def test_an_overflowing_dispersive_phase_is_refused_by_its_formula(call, phase):
    js = joint_state(make_fock(1, 0, Truncation(3)), ion2=QubitState.ground())
    with pytest.raises(ValueError, match=f"^{re.escape(phase)} must be finite, got inf$"):
        call(js)


def test_a_dispersive_phase_inside_its_bound_is_taken():
    # the largest phase 1.5 chi_t nmax = 1.35e308 is finite, so the call is valid
    js = joint_state(make_fock(1, 0, Truncation(3)), ion2=QubitState.ground())
    assert np.isfinite(conditional_phase("c", 3e307, js).amps).all()


def test_a_dispersive_phase_at_nmax_0_takes_any_finite_chi_t():
    # chi_t k is formed before the constant, so k = 0 never meets an
    # overflowed 2 chi_t or 1.5 chi_t (inf times 0 would be NaN)
    js = joint_state(make_fock(0, 0, Truncation(0)), ion2=QubitState.ground())
    est = direct_mean_phonon(make_fock(0, 0, Truncation(0)), 1e308)
    assert est.sigma_x_exact == 0.0 and est.mean_n_linearized == 0.0
    for chi_t in (1.5e308, -1.5e308, 1.7976931348623157e308):
        assert np.array_equal(conditional_phase("c", chi_t, js).amps, js.amps)


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
        apply(beam_splitter("b1", 0.2, t), js)


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
    dense = expm_oracle(gen, theta)
    assert np.max(np.abs(dense @ js.amps.ravel() - out.amps.ravel())) < 1e-10


@pytest.mark.parametrize("ion2", [None, QubitState.ground()], ids=["ion1", "both-ions"])
def test_joint_propagator_rotates_both_arms_in_one_pass(ion2, drawn_blocks):
    # B(-theta) = P B(theta) P with P = (-1)^{a+ a}, so the -1 arm of sigma_x1
    # rides through the +1 arm's rotation and no block is drawn twice
    t = Truncation(6)
    js = joint_state(make_coherent(0.8, 0.5j, t), ion1=QubitState.of(0.6, 0.8), ion2=ion2)
    joint_bs_propagator("u2", 1.1, js)
    assert len(drawn_blocks) == 1


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
    dense = expm_oracle(gen, chi_t)
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
    # a second half pulse completes the pi pulse |g> -> -i |e>; it acts on |e> as well
    twice = carrier_half_pulse(js)
    assert twice.amps[0, idx] == pytest.approx(0.0, abs=1e-15)
    assert twice.amps[1, idx] == pytest.approx(-1j, abs=1e-15)


def test_expm_oracle_zero_generator():
    u = expm_oracle(np.zeros((4, 4)), 1.0)
    assert np.allclose(u, np.eye(4))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_expm_oracle_matches_beam_splitter():
    t = Truncation(2)
    theta = math.pi / 2
    dense = expm_oracle(dense_jx(t), theta)
    assert np.max(np.abs(dense - as_matrix(beam_splitter("b1", theta, t)))) < 1e-10


def test_expm_oracle_matches_phase_shifter():
    # exp(-i n t) with t = phi equals the phase shifter at -phi
    t = Truncation(3)
    phi = 0.9
    dense = expm_oracle(dense_number(t, "c"), phi)
    assert np.max(np.abs(dense - as_matrix(phase_shifter("c", -phi, t)))) < 1e-12


def test_passive_operator_composes_with_passive_operators_only():
    t = Truncation(3)
    bs = beam_splitter("b1", 0.3, t)
    with pytest.raises(TypeError):
        bs @ jcm_unitary(1.0, 0.5, t, "single")


def test_expm_oracle_rejects_oversize_and_non_normal():
    with pytest.raises(ValueError, match="exceeds cap"):
        expm_oracle(np.eye(600), 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_oracle(np.triu(np.ones((3, 3))), 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):  # anti-Hermitian
        expm_oracle(2j * dense_jy(Truncation(4)), 0.31)


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("Omega", math.nan, "Omega must be finite, got nan"),
        ("Delta", math.inf, "Delta must be finite, got inf"),
        ("Omega", 1e200, "overflow phi, chi$"),
        ("t", 1e308, "overflow theta, phi, phi_r$"),
        # an int beyond the float range used to raise OverflowError from math.isfinite
        *(pytest.param(f, 10**400, f"^{f} must be finite, got an integer beyond the float range$",
                       id=f"{f}-10**400") for f in LabParams.__slots__),
    ],
)
def test_lab_to_angles_refuses_non_finite_fields_and_angles(field, value, message):
    # unchecked, these give theta = nan, chi = 0.0 and an OverflowError from Omega**2
    fields = dict(Omega=1e5, eta=0.1, eta_r=0.076, Delta=1e6, Delta_r=1e6, Omega_r=1e5, t=1e-3)
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        lab_to_angles(LabParams(**fields))


def test_linked_trap_relation():
    p = LabParams.linked(1.0, 0.2, 1.0, 1.0, 1.0, 1.0)
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
