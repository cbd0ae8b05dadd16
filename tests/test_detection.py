import json
import math

import numpy as np
import pytest

from phonon_optics import (
    MotionalState,
    QubitState,
    SignalTrace,
    Truncation,
    default_times,
    direct_mean_phonon,
    jcm_propagate,
    jcm_unitary,
    joint_state,
    jz_from_methods,
    level_sets,
    make_coherent,
    make_fock,
    mz_output,
    number_distributions,
    reconstruct_single,
    reconstruct_two,
    signal,
    truncation_for_coherent,
)
from phonon_optics.detection import _SIGNAL_CHUNK
from phonon_optics.operators import SIGMA_MINUS, SIGMA_PLUS, dense_annihilation, expm_oracle


def random_state(rng, trunc):
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    amps /= np.linalg.norm(amps)
    return MotionalState(trunc, amps)


def superposition(trunc, parts):
    amps = np.zeros(trunc.dim, complex)
    for (m, n), c in parts.items():
        amps[trunc.index(m, n)] = c
    amps /= np.linalg.norm(amps)
    return MotionalState(trunc, amps)


# exact Jaynes-Cummings dynamics ---------------------------------------------


def test_jcm_vacuum_is_stationary():
    t = Truncation(4)
    js = joint_state(make_fock(0, 0, t), ion2=QubitState.ground())
    out = jcm_propagate(js, 1.0, 2.7, "single")
    assert np.allclose(out.amps, js.amps, atol=1e-15)


def test_jcm_single_full_and_half_swap():
    t = Truncation(4)
    js = joint_state(make_fock(1, 0, t), ion2=QubitState.ground())
    # lambda t = pi/2 on one phonon: full swap into -i |e, 0, 0>
    out = jcm_propagate(js, 1.0, math.pi / 2, "single")
    assert out.ground_probability(2) == pytest.approx(0.0, abs=1e-12)
    assert out.amps[1, t.index(0, 0)] == pytest.approx(-1j, abs=1e-12)
    # lambda t = pi/4: half swap
    half = jcm_propagate(js, 1.0, math.pi / 4, "single")
    assert half.ground_probability(2) == pytest.approx(0.5, abs=1e-12)


def test_jcm_two_mode_full_swap():
    t = Truncation(4)
    js = joint_state(make_fock(1, 1, t), ion2=QubitState.ground())
    out = jcm_propagate(js, 1.0, math.pi / 2, "two")
    assert out.ground_probability(2) == pytest.approx(0.0, abs=1e-12)
    assert out.amps[1, t.index(0, 0)] == pytest.approx(-1j, abs=1e-12)


def test_jcm_requires_ion2():
    js = joint_state(make_fock(1, 0, Truncation(3)), ion1=QubitState.ground())
    with pytest.raises(ValueError, match="no qubit register"):
        jcm_propagate(js, 1.0, 0.5, "single")


def test_jcm_unitary_acts_on_joint_states_only():
    t = Truncation(3)
    u = jcm_unitary(1.0, 0.5, t, "single")
    with pytest.raises(TypeError, match="JointState"):
        u.apply(make_fock(1, 0, t))
    # the pair indices belong to one truncation; on another they pick wrong states
    with pytest.raises(ValueError, match="truncation mismatch"):
        u.apply(joint_state(make_fock(2, 2, Truncation(4)), ion2=QubitState.ground()))


def test_jcm_unitary_properties():
    t = Truncation(6)
    u = jcm_unitary(1.3, 0.7, t, "single", "c")
    assert u.unitarity_defect() < 1e-12
    m = u.as_matrix()
    assert np.max(np.abs(m.conj().T @ m - np.eye(2 * t.dim))) < 1e-12


@pytest.mark.parametrize("kind,mode", [("single", "c"), ("single", "r"), ("two", "c")])
def test_jcm_matches_dense_hamiltonian(kind, mode):
    t = Truncation(5)
    lam, tau = 0.9, 1.1
    if kind == "single":
        a = dense_annihilation(t, mode)
        h = lam * (np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, a.conj().T))
    else:
        ab = dense_annihilation(t, "c") @ dense_annihilation(t, "r")
        h = lam * (np.kron(SIGMA_PLUS, ab) + np.kron(SIGMA_MINUS, ab.conj().T))
    dense = expm_oracle(h, tau).matrix
    rng = np.random.default_rng(11)
    psi = random_state(rng, t)
    js = joint_state(psi, ion2=QubitState.of(0.6, 0.8j))
    out = jcm_propagate(js, lam, tau, kind, mode)
    assert np.max(np.abs(dense @ js.amps.ravel() - out.amps.ravel())) < 1e-10


# closed-form signals ---------------------------------------------------------


def test_signal_vacuum_is_unity():
    t = Truncation(3)
    trace = signal(make_fock(0, 0, t), 1.0, np.linspace(0, 10, 16), "single")
    assert np.allclose(trace.values, 1.0, atol=1e-15)


def test_signal_single_phonon_cosine():
    t = Truncation(4)
    times = np.linspace(0, 8, 64)
    trace = signal(make_fock(1, 2, t), 1.0, times, "single", "c")
    assert np.allclose(trace.values, 0.5 * (1 + np.cos(2 * times)), atol=1e-14)


def test_signal_entangled_single_phonon():
    # p_0 = p_1 = 1/2 in the probed mode
    t = Truncation(4)
    s = superposition(t, {(1, 0): 1.0, (0, 1): -1j})
    times = np.linspace(0, 5, 32)
    trace = signal(s, 1.0, times, "single", "c")
    want = 0.5 * (1 + 0.5 + 0.5 * np.cos(2 * times))
    assert np.allclose(trace.values, want, atol=1e-14)


@pytest.mark.parametrize("kind", ["single", "two"])
def test_signal_equals_dynamics(kind):
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 8 * math.pi, 33)
    for _ in range(10):
        t = Truncation(int(rng.integers(2, 9)))
        s = random_state(rng, t)
        trace = signal(s, 1.0, times, kind)
        for ti, want in zip(times, trace.values):
            js = jcm_propagate(joint_state(s, ion2=QubitState.ground()), 1.0, ti, kind)
            assert abs(js.ground_probability(2) - want) < 1e-12


def test_signal_trace_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SignalTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.0, "single")
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        SignalTrace(np.array([0.0, 1.0]), np.array([0.5, 1.5]), 1.0, "single")
    with pytest.raises(ValueError, match="kind"):
        SignalTrace(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1.0, "both")


def test_signal_trace_rejects_unknown_mode_and_bad_coupling():
    t = Truncation(3)
    times = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="mode must be 'c' or 'r'"):
        signal(make_fock(1, 0, t), 1.0, times, "single", "x")
    for coupling in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling must be finite and positive"):
            SignalTrace(times, np.ones(8), coupling, "single")
    # a zero coupling made every dictionary column identical, and the fit
    # returned p = [1, 0, 0, 0] with residual 0
    with pytest.raises(ValueError, match="coupling"):
        reconstruct_single(SignalTrace(np.linspace(0, 1, 32), np.ones(32), 0.0, "single"), 3)


@pytest.mark.parametrize("kind", ["single", "two"])
def test_chunked_signal_equals_one_piece_table(kind):
    # the grid ends half way through a chunk
    s = make_coherent(1.5, -0.8, Truncation(30))
    times = np.linspace(0.0, 12.0, 5 * _SIGNAL_CHUNK // 2)
    got = signal(s, 0.9, times, kind).values
    if kind == "single":
        p = number_distributions(s).p_m
        freqs = 1.8 * np.sqrt(np.arange(p.size))
    else:
        q = level_sets(s)
        p = np.array([q[k] for k in sorted(q)])
        freqs = 1.8 * np.sqrt(np.array(sorted(q), dtype=float))
    want = np.clip(0.5 * (1.0 + np.cos(np.outer(times, freqs)) @ p), 0.0, 1.0)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_signal_trace_rejects_non_finite(bad):
    values = np.full(8, 0.5)
    values[3] = bad
    with pytest.raises(ValueError, match="probabilities must be finite"):
        SignalTrace(np.linspace(0, 1, 8), values, 1.0, "single")
    with pytest.raises(ValueError, match="probabilities must be finite"):
        SignalTrace(np.linspace(0, 1, 8), np.full(8, bad), 1.0, "single")
    times = np.linspace(0, 1, 8)
    times[-1] = bad
    with pytest.raises(ValueError, match="times must be finite"):
        SignalTrace(times, np.full(8, 0.5), 1.0, "single")


def test_trace_csv():
    t = Truncation(2)
    trace = signal(make_fock(1, 0, t), 1.0, np.linspace(0, 1, 4), "single")
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "t,p_g"
    assert len(lines) == 5


# reconstruction --------------------------------------------------------------


def test_reconstruct_single_flat_signal():
    times = default_times(1.0, 64)
    trace = SignalTrace(times, np.ones_like(times), 1.0, "single")
    rec = reconstruct_single(trace, 8)
    assert rec.p[0] == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_single_one_phonon_round_trip():
    t = Truncation(6)
    trace = signal(make_fock(1, 3, t), 1.0, default_times(1.0), "single", "c")
    rec = reconstruct_single(trace, 6)
    assert rec.p[1] == pytest.approx(1.0, abs=1e-6)


def test_reconstruct_single_poisson_round_trip():
    s = make_coherent(math.sqrt(2), 0, Truncation(25))
    trace = signal(s, 1.0, default_times(1.0), "single", "c")
    rec = reconstruct_single(trace, 12)
    true_p = number_distributions(s).p_m[:13]
    assert np.abs(rec.p - true_p).sum() < 1e-3


def test_reconstruct_single_validations():
    t = Truncation(3)
    times = np.linspace(0, 5, 8)
    trace = signal(make_fock(1, 0, t), 1.0, times, "single")
    with pytest.raises(ValueError, match="need at least"):
        reconstruct_single(trace, 10)
    two_trace = signal(make_fock(1, 1, t), 1.0, times, "two")
    with pytest.raises(ValueError, match="single-mode trace"):
        reconstruct_single(two_trace, 2)


@pytest.mark.parametrize(
    "kind, reconstruct", [("single", reconstruct_single), ("two", reconstruct_two)]
)
def test_absurd_weight_count_is_refused_before_the_dictionary(kind, reconstruct):
    # 2**62 + 1 roots would need 32 EiB; the sample count is checked first
    trace = signal(make_fock(1, 1, Truncation(3)), 1.0, default_times(1.0), kind)
    with pytest.raises(ValueError, match="cannot determine"):
        reconstruct(trace, 2**62)


def test_reconstruct_two_level_sets():
    t = Truncation(4)
    trace = signal(make_fock(0, 0, t), 1.0, default_times(1.0, 64), "two")
    rec = reconstruct_two(trace, 4)
    assert rec.q[0] == pytest.approx(1.0, abs=1e-9)

    trace = signal(make_fock(1, 1, t), 1.0, default_times(1.0), "two")
    rec = reconstruct_two(trace, 6)
    assert rec.q[1] == pytest.approx(1.0, abs=1e-6)


def test_two_mode_product_degeneracy():
    # m n = 4 for both |2,2> and |1,4>: the signals coincide sample by sample
    t = Truncation(6)
    times = default_times(1.0, 128)
    pure = signal(make_fock(2, 2, t), 1.0, times, "two")
    mixed = signal(superposition(t, {(2, 2): 1.0, (1, 4): 1.0}), 1.0, times, "two")
    other = signal(make_fock(1, 4, t), 1.0, times, "two")
    assert np.max(np.abs(pure.values - mixed.values)) < 1e-12
    assert np.max(np.abs(pure.values - other.values)) < 1e-12
    rec = reconstruct_two(mixed, 8)
    assert rec.q[4] == pytest.approx(1.0, abs=1e-6)


def test_level_sets_sum_to_one():
    rng = np.random.default_rng(2)
    s = random_state(rng, Truncation(7))
    q = level_sets(s)
    assert sum(q.values()) == pytest.approx(1.0, abs=1e-12)
    want_q4 = sum(
        abs(s.amplitude(m, n)) ** 2
        for m in range(8)
        for n in range(8 - m)
        if m * n == 4
    )
    assert q.get(4, 0.0) == pytest.approx(want_q4, abs=1e-12)


# direct mean-phonon readout --------------------------------------------------


def test_direct_vacuum():
    est = direct_mean_phonon(make_fock(0, 0, Truncation(3)), 1e-3, 1.0, "c")
    assert est.sigma_x_exact == 0.0
    assert est.mean_n_linearized == 0.0


def test_direct_fock_three():
    est = direct_mean_phonon(make_fock(3, 0, Truncation(5)), 1e-3, 1.0, "c")
    assert est.sigma_x_exact == pytest.approx(-math.sin(6e-3), abs=1e-15)
    assert est.mean_n_linearized == pytest.approx(math.sin(6e-3) / 2e-3, abs=1e-12)
    assert abs(est.mean_n_linearized - 3) / 3 < 6e-6


def test_direct_coherent_accuracy():
    s = make_coherent(2.0, 0.0, Truncation(30))
    est = direct_mean_phonon(s, 1e-3, 1.0, "c")
    assert abs(est.mean_n_linearized - 4.0) / 4.0 < 1e-4


def test_direct_breathing_mode():
    s = make_coherent(0.0, 1.5, Truncation(25))
    est = direct_mean_phonon(s, 1e-3, 1.0, "r")
    assert abs(est.mean_n_linearized - 2.25) / 2.25 < 1e-4


def test_direct_linearization_bias_bound():
    # |sin(x)/x - 1| <= x^2/6 with x = 2 chi t m
    chi_t = 1e-3
    for m in range(1, 11):
        est = direct_mean_phonon(make_fock(m, 0, Truncation(12)), chi_t, 1.0, "c")
        bound = (2 * chi_t) ** 2 * m**3 / 6
        assert abs(est.mean_n_linearized - m) <= bound + 1e-15


def test_direct_rejects_zero_angle():
    with pytest.raises(ValueError, match="positive"):
        direct_mean_phonon(make_fock(1, 0, Truncation(2)), 0.0, 1.0, "c")


# three-way comparison --------------------------------------------------------


def test_jz_methods_vacuum():
    cmp_ = jz_from_methods(make_fock(0, 0, Truncation(4)))
    assert cmp_.jz_exact == 0.0
    assert abs(cmp_.jz_reconstructed) < 1e-9
    assert cmp_.jz_direct == 0.0


def test_jz_methods_single_phonon():
    cmp_ = jz_from_methods(make_fock(1, 0, Truncation(6)))
    assert cmp_.jz_exact == pytest.approx(0.5)
    assert cmp_.jz_reconstructed == pytest.approx(0.5, abs=1e-3)
    assert cmp_.jz_direct == pytest.approx(0.5, abs=1e-3)


def test_jz_methods_on_interferometer_output():
    trunc = truncation_for_coherent(0, 2, 1e-12)
    out = mz_output(make_coherent(0, 2, trunc), math.pi / 3)
    cmp_ = jz_from_methods(out)
    want = 2 * math.cos(math.pi / 3)
    assert cmp_.jz_exact == pytest.approx(want, abs=1e-9)
    assert cmp_.jz_reconstructed == pytest.approx(want, abs=1e-3)
    assert cmp_.jz_direct == pytest.approx(want, abs=1e-3)
    assert cmp_.max_pairwise_deviation < 1e-3
    assert "jz_exact" in cmp_.summary()


def test_reconstruction_json_shapes():
    t = Truncation(4)
    trace = signal(make_fock(1, 0, t), 1.0, default_times(1.0, 64), "single")
    rec = reconstruct_single(trace, 4)
    data = json.loads(rec.to_json())
    assert len(data["p"]) == 5
    assert data["residual"] >= 0.0
    two = reconstruct_two(signal(make_fock(1, 1, t), 1.0, default_times(1.0, 64), "two"), 4)
    qdata = json.loads(two.to_json())
    assert set(qdata) == {"q", "residual"}
