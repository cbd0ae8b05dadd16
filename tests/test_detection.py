import json
import math
import re

import numpy as np
import pytest

from phonon_optics import (
    MotionalState,
    QubitState,
    SignalTrace,
    Truncation,
    conditional_phase,
    default_times,
    direct_mean_phonon,
    jcm_propagate,
    jcm_unitary,
    joint_state,
    jz_from_methods,
    level_sets,
    make_cat,
    make_coherent,
    make_fock,
    mz_output,
    number_distributions,
    phase_shifter,
    reconstruct_single,
    reconstruct_two,
    signal,
    truncation_for_coherent,
)
from phonon_optics import detection
from phonon_optics.detection import _SIGNAL_CHUNK, _jcm_tables
from phonon_optics.fockspace import WEIGHT_FLOOR
from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    as_matrix,
    dense_annihilation,
    dense_number,
    expm_oracle,
    unitarity_defect,
)


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
    m = as_matrix(u)
    assert np.max(np.abs(m.conj().T @ m - np.eye(2 * t.dim))) < 1e-12


@pytest.mark.parametrize("kind", ["single", "two"])
@pytest.mark.parametrize("nmax, coupling, t", [(0, 1.0, 1.0), (1, 1.0, 1.0), (6, 1.3, 0.7),
                                               (40, 3.0, 1e5), (40, 1.0, 1e-300)])
def test_jcm_unitarity_defect_is_the_dense_defect(kind, nmax, coupling, t):
    # the closed form max |cos^2 + sin^2 - 1| against each dense 2x2 rotation;
    # a truncation with no coupled pair has no rotation and a defect of 0
    u = jcm_unitary(coupling, t, Truncation(nmax), kind)
    assert u.unitarity_defect() == pytest.approx(unitarity_defect(u), abs=2**-52)
    if u.angle.size == 0:
        assert u.unitarity_defect() == 0.0


@pytest.mark.parametrize("kind, mode, dm, dn", [
    ("single", "c", 1, 0), ("single", "r", 0, 1), ("two", "c", 1, 1),
])
def test_jcm_tables_pair_each_state_with_its_lowered_partner(kind, mode, dm, dn):
    # |g, m, n> couples to |e, m - dm, n - dn> with Rabi factor sqrt(m^dm n^dn)
    for nmax in (0, 1, 5, 30):
        t = Truncation(nmax)
        ms, ns = t.mode_numbers()
        pairs = [(t.index(m, n), t.index(m - dm, n - dn), math.sqrt(m**dm * n**dn))
                 for m, n in zip(ms.tolist(), ns.tolist()) if m >= dm and n >= dn]
        g_idx, e_idx, root = _jcm_tables(t, kind, mode)
        assert list(zip(g_idx.tolist(), e_idx.tolist(), root.tolist())) == pairs


def test_cached_probe_tables_are_read_only():
    # a propagator's index arrays are read-only like every record's, and a
    # fresh propagator at the same cutoff gets the same pairs
    t = Truncation(3)
    u = jcm_unitary(1.0, 0.5, t, "single")
    for table in (u.g_index, u.e_index):
        with pytest.raises(ValueError, match="read-only"):
            table[:] = 0
    fresh = jcm_unitary(2.0, 0.25, t, "single")
    ms, ns = t.mode_numbers()
    assert fresh.g_index.tolist() == np.flatnonzero(ms).tolist() == [2, 4, 5, 7, 8, 9]
    assert fresh.e_index.tolist() == t.flat(ms[fresh.g_index] - 1, ns[fresh.g_index]).tolist()


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
    dense = expm_oracle(h, tau)
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


def _ion2_ground(t):
    return joint_state(make_fock(1, 0, t), ion2=QubitState.ground())


@pytest.mark.parametrize("call", [
    lambda t: make_cat(1.0, "even", "x", t),
    lambda t: phase_shifter("x", 0.3, t),
    lambda t: conditional_phase("x", 0.3, _ion2_ground(t)),
    lambda t: dense_annihilation(t, "x"),
    lambda t: dense_number(t, "x"),
    lambda t: jcm_unitary(1.0, 0.5, t, "single", "x"),
    lambda t: SignalTrace(np.linspace(0.0, 1.0, 8), np.ones(8), 1.0, "single", "x"),
    lambda t: signal(make_fock(1, 0, t), 1.0, np.linspace(0.0, 1.0, 8), "single", "x"),
    lambda t: direct_mean_phonon(make_fock(1, 0, t), 1e-3, "x"),
], ids=["make_cat", "phase_shifter", "conditional_phase", "dense_annihilation",
        "dense_number", "jcm_unitary", "SignalTrace", "signal", "direct_mean_phonon"])
def test_every_function_taking_a_mode_rejects_an_unknown_one(call, monkeypatch):
    # the label is refused before any distribution is built
    def unreachable(state):
        raise AssertionError("number_distributions ran before the mode check")

    monkeypatch.setattr("phonon_optics.detection.number_distributions", unreachable)
    with pytest.raises(ValueError, match="mode must be 'c' or 'r', got 'x'"):
        call(Truncation(3))


@pytest.mark.parametrize("coupling", [-1.0, 0.0])
@pytest.mark.parametrize("kind", ["single", "two"])
def test_signal_refuses_its_coupling_before_any_table(monkeypatch, kind, coupling):
    def unreachable(state):
        raise AssertionError("a line weight was summed before the coupling was checked")

    monkeypatch.setattr("phonon_optics.detection.number_distributions", unreachable)
    monkeypatch.setattr("phonon_optics.detection.level_sets", unreachable)
    message = f"coupling must be finite and positive, got {coupling!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        signal(make_fock(1, 1, Truncation(3)), coupling, np.linspace(0.0, 1.0, 8), kind)


def test_signal_trace_rejects_bad_coupling():
    times = np.linspace(0.0, 1.0, 8)
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
        p = level_sets(s)
        freqs = 1.8 * np.sqrt(np.arange(p.size))
    want = np.clip(0.5 * (1.0 + np.cos(np.outer(times, freqs)) @ p), 0.0, 1.0)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("kind", ["single", "two"])
def test_signal_without_weightless_lines_matches_the_full_table(kind):
    # mean 25 phonons at nmax 300: most lines weigh far less than WEIGHT_FLOOR**2
    s = make_coherent(4.0, 3.0 + 1.0j, Truncation(300))
    times = np.linspace(0.0, 10.0, 128)
    got = signal(s, 1.0, times, kind).values
    if kind == "single":
        p = number_distributions(s).p_m
        ks = np.arange(p.size)
    else:
        p = level_sets(s)
        ks = np.arange(p.size)
    assert np.count_nonzero(p > WEIGHT_FLOOR**2) < p.size / 2
    want = np.clip(0.5 * (1.0 + np.cos(np.outer(times, 2.0 * np.sqrt(ks))) @ p), 0.0, 1.0)
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


def test_reconstruct_refuses_a_trace_that_fits_to_zero():
    # P_g = 0 at every sample: the nonnegative fit is all zeros, with no distribution to normalize
    trace = SignalTrace(default_times(1.0, 16), np.zeros(16), 1.0, "single")
    with pytest.raises(ValueError, match="reconstruction collapsed to the zero distribution"):
        reconstruct_single(trace, 3)


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


@pytest.mark.parametrize("kind, mode", [("single", "c"), ("single", "r"), ("two", "c")])
def test_signal_and_fit_read_one_probe_table(monkeypatch, kind, mode):
    # signal is (1/2)(1 + table @ p) and the fit's design (1/2)(1 + table)
    s = make_coherent(0.8, 0.5j, Truncation(6))
    times = default_times(1.0, _SIGNAL_CHUNK + 8)
    tables = []
    build = detection._probe_table
    monkeypatch.setattr(detection, "_probe_table", lambda *args: tables.append(args) or build(*args))
    trace = signal(s, 1.0, times, kind, mode)
    p = number_distributions(s).marginal(mode) if kind == "single" else level_sets(s)
    ks = np.flatnonzero(p > WEIGHT_FLOOR**2)
    assert len(tables) == 2  # one per slice of _SIGNAL_CHUNK samples
    want = np.concatenate([build(1.0, np.sqrt(ks), times[:_SIGNAL_CHUNK]) @ p[ks],
                           build(1.0, np.sqrt(ks), times[_SIGNAL_CHUNK:]) @ p[ks]])
    assert np.array_equal(trace.values, np.clip(0.5 * (1.0 + want), 0.0, 1.0))
    (reconstruct_single if kind == "single" else reconstruct_two)(trace, 6)
    assert len(tables) == 3 and np.array_equal(tables[2][1], np.sqrt(np.arange(7)))


def test_two_mode_fit_of_a_fock_pair_leaves_a_rounding_residual():
    # the design (1/2)(1 + cos 2x) fits fock 1 1 to 1.5e-17; cos^2 x left 8.9e-16
    trace = signal(make_fock(1, 1, Truncation(6)), 1.0, default_times(1.0), "two")
    fit = reconstruct_two(trace, 6)
    assert fit.residual < 1e-16 and fit.q[1] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("coupling", [1.0, 0.37, 2.5])
def test_default_grid_up_to_61_weights_is_the_fixed_grid(coupling):
    # 256 samples over coupling * t in [0, 8 pi]: the grid before it was sized
    fixed = np.linspace(0.0, 8.0 * math.pi / coupling, 256)
    for n_weights in range(62):
        assert np.array_equal(default_times(coupling, None, n_weights), fixed)
        assert np.array_equal(default_times(coupling, 300, n_weights),
                              np.linspace(0.0, 8.0 * math.pi / coupling, 300))
    assert np.array_equal(default_times(coupling), fixed)


@pytest.mark.parametrize("n_weights, count", [(62, 256), (101, 414), (128, 525), (201, 827)])
def test_default_grid_grows_with_the_top_line(n_weights, count):
    # span 8 pi sqrt((n - 1) / 60) and 4 samples a period of the top line 2 sqrt(n - 1)
    span = 8.0 * math.pi * math.sqrt((n_weights - 1) / 60)
    times = default_times(1.0, None, n_weights)
    sized = math.ceil(4.0 * span * math.sqrt(n_weights - 1) / math.pi)
    assert times.size == count == max(256, sized)
    assert times[-1] == pytest.approx(span, rel=1e-15)
    assert np.array_equal(default_times(1.0, 2 * n_weights, n_weights),
                          np.linspace(0.0, times[-1], 2 * n_weights))


def test_default_grid_refuses_what_its_fit_cannot_take():
    with pytest.raises(ValueError, match="^256 samples cannot determine 129 weights; "
                                         "need at least 258$"):
        default_times(1.0, 256, 129)
    with pytest.raises(ValueError, match="^the number of weights must be finite, got an integer "
                                         "beyond the float range$"):
        default_times(1.0, None, 10**400)
    with pytest.raises(ValueError, match="^the sample count of those weights must be "
                                         "finite, got inf$"):
        default_times(1.0, None, 10**308)
    with pytest.raises(ValueError, match="^n_weights must be an integer, got 2.5$"):
        default_times(1.0, None, 2.5)
    with pytest.raises(ValueError, match="^n_weights must be nonnegative, got -4$"):
        default_times(1.0, None, -4)


@pytest.mark.parametrize(
    "kind, reconstruct", [("single", reconstruct_single), ("two", reconstruct_two)]
)
def test_overflowing_fit_phase_is_refused_by_name(kind, reconstruct):
    # a trace built directly: signal itself refuses this coupling first
    trace = SignalTrace(np.linspace(0.0, 1e-300, 8), np.ones(8), 1e308, kind)
    with pytest.raises(ValueError, match="^probe phase 2 \\* coupling \\* sqrt\\(k\\) \\* t "
                                         "must be finite, got inf$"):
        reconstruct(trace, 3)


FIT_SIZES = [
    ("single-2.5", lambda s, tr: reconstruct_single(tr["single"], 2.5), "m_max", "2.5"),
    ("single-True", lambda s, tr: reconstruct_single(tr["single"], True), "m_max", "True"),
    ("two-3.5", lambda s, tr: reconstruct_two(tr["two"], 3.5), "k_max", "3.5"),
    ("jz_from_methods-2.5", lambda s, tr: jz_from_methods(s, m_max=2.5), "m_max", "2.5"),
    ("default_times-2.5", lambda s, tr: default_times(1.0, 2.5), "n_samples", "2.5"),
    ("default_times-True", lambda s, tr: default_times(1.0, True), "n_samples", "True"),
    ("jz_from_methods-samples-300.5",
     lambda s, tr: jz_from_methods(s, n_samples=300.5), "n_samples", "300.5"),
]


@pytest.mark.parametrize("call, what, value", [c[1:] for c in FIT_SIZES],
                         ids=[c[0] for c in FIT_SIZES])
def test_fit_sizes_are_integers(call, what, value):
    # each used to fit int(m_max) + 1 or int(k_max) + 1 weights without a word,
    # and a float sample count escaped as a TypeError that named no argument
    s = make_coherent(1.0, 0.5, Truncation(10))
    traces = {kind: signal(s, 1.0, default_times(1.0), kind) for kind in ("single", "two")}
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got {value}$"):
        call(s, traces)
    assert reconstruct_single(traces["single"], np.int64(3)).p.size == 4


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
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    want_q4 = sum(
        abs(s.amplitude(m, n)) ** 2
        for m in range(8)
        for n in range(8 - m)
        if m * n == 4
    )
    assert q[4] == pytest.approx(want_q4, abs=1e-12)


# direct mean-phonon readout --------------------------------------------------


def test_direct_vacuum():
    est = direct_mean_phonon(make_fock(0, 0, Truncation(3)), 1e-3, "c")
    assert est.sigma_x_exact == 0.0
    assert est.mean_n_linearized == 0.0


def test_direct_fock_three():
    est = direct_mean_phonon(make_fock(3, 0, Truncation(5)), 1e-3, "c")
    assert est.sigma_x_exact == pytest.approx(-math.sin(6e-3), abs=1e-15)
    assert est.mean_n_linearized == pytest.approx(math.sin(6e-3) / 2e-3, abs=1e-12)
    assert abs(est.mean_n_linearized - 3) / 3 < 6e-6


def test_direct_coherent_accuracy():
    s = make_coherent(2.0, 0.0, Truncation(30))
    est = direct_mean_phonon(s, 1e-3, "c")
    assert abs(est.mean_n_linearized - 4.0) / 4.0 < 1e-4


def test_direct_breathing_mode():
    s = make_coherent(0.0, 1.5, Truncation(25))
    est = direct_mean_phonon(s, 1e-3, "r")
    assert abs(est.mean_n_linearized - 2.25) / 2.25 < 1e-4


def test_direct_linearization_bias_bound():
    # |sin(x)/x - 1| <= x^2/6 with x = 2 chi t m
    chi_t = 1e-3
    for m in range(1, 11):
        est = direct_mean_phonon(make_fock(m, 0, Truncation(12)), chi_t, "c")
        bound = (2 * chi_t) ** 2 * m**3 / 6
        assert abs(est.mean_n_linearized - m) <= bound + 1e-15


def test_nnls_stops_after_three_iterations_a_column(monkeypatch):
    # SciPy's cap.  A least-squares step that is NaN on one free column and
    # negative on two sends the active set round a cycle that never settles.
    calls = []

    def step(cols, b, rcond):
        calls.append(cols.shape[1])
        return (np.full(cols.shape[1], np.nan if cols.shape[1] == 1 else -1.0),)

    monkeypatch.setattr(np.linalg, "lstsq", step)
    with pytest.raises(ValueError, match="^nonnegative least squares did not converge in 6 "
                                         "iterations$"):
        detection._nnls(np.eye(2), np.ones(2))
    assert len(calls) == 12  # six iterations of a solve and its refinement


def test_nnls_fixes_every_weight_that_its_step_takes_to_zero(monkeypatch):
    # Lawson and Hanson's step: every weight that reaches 0 goes back to the
    # fixed set, not only the one that stopped the step.  Scripted solves on
    # the identity make two weights reach 0 together.
    solves = {1: [1.0], 2: [1.0, 1.0], 3: [-1.0, -1.0, 1.0]}
    widths = []

    def step(cols, b, rcond):
        widths.append(cols.shape[1])
        refinement = len(widths) % 2 == 0
        return (np.zeros(cols.shape[1]) if refinement else np.array(solves[cols.shape[1]]),)

    monkeypatch.setattr(np.linalg, "lstsq", step)
    x, residual = detection._nnls(np.eye(3), np.ones(3))
    assert widths[::2] == [1, 2, 3, 1]  # after the step only the third column is free
    assert x.tolist() == [1.0, 1.0, 0.0] and residual == 1.0  # the last step raised it


def test_default_times_takes_two_samples_and_no_fewer():
    assert default_times(1.0, 2).tolist() == [0.0, detection.DEFAULT_ANGLE_SPAN]
    for n_samples in (1, 0):
        with pytest.raises(ValueError, match="^need at least two samples$"):
            default_times(1.0, n_samples)


def test_direct_rejects_zero_angle():
    with pytest.raises(ValueError, match="positive"):
        direct_mean_phonon(make_fock(1, 0, Truncation(2)), 0.0, "c")


# three-way comparison --------------------------------------------------------


def test_jz_methods_vacuum():
    cmp_ = jz_from_methods(make_fock(0, 0, Truncation(4)))
    assert cmp_.jz_exact == 0.0
    assert abs(cmp_.jz_reconstructed) < 1e-9
    assert cmp_.jz_direct == 0.0


def test_jz_methods_probe_both_modes_in_order_at_unit_coupling():
    cmp_ = jz_from_methods(make_fock(1, 0, Truncation(2)), n_samples=16)
    assert [(t.mode, t.coupling) for t in cmp_.traces] == [("c", 1.0), ("r", 1.0)]
    assert [est.mode for est in cmp_.directs] == ["c", "r"]


@pytest.mark.parametrize("chi_t", [0.0, -1e-3, math.nan, math.inf])
def test_jz_methods_refuse_chi_t_before_any_trace(monkeypatch, chi_t):
    def unreachable(*args, **kwargs):
        raise AssertionError("a trace was taken before chi * t was checked")

    monkeypatch.setattr("phonon_optics.detection.signal", unreachable)
    with pytest.raises(ValueError, match="chi \\* t must be finite and positive"):
        jz_from_methods(make_fock(1, 0, Truncation(6)), chi_t=chi_t)


@pytest.mark.parametrize("kwargs, message", [
    ({"m_max": -5}, "m_max must be nonnegative, got -5"),
    ({"coupling": -1.0}, "coupling must be finite and positive, got -1.0"),
    ({"n_samples": 300.5}, "n_samples must be an integer, got 300.5"),
], ids=["m_max", "coupling", "n_samples"])
def test_jz_methods_refuse_their_fit_arguments_before_any_readout(monkeypatch, kwargs, message):
    def unreachable(*args, **kw):
        raise AssertionError("a readout ran before the fit arguments were checked")

    monkeypatch.setattr("phonon_optics.detection.signal", unreachable)
    monkeypatch.setattr("phonon_optics.detection.direct_mean_phonon", unreachable)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        jz_from_methods(make_fock(1, 0, Truncation(6)), **kwargs)


def test_jz_methods_single_phonon():
    cmp_ = jz_from_methods(make_fock(1, 0, Truncation(6)))
    assert cmp_.jz_exact == pytest.approx(0.5)
    assert cmp_.jz_reconstructed == pytest.approx(0.5, abs=1e-3)
    assert cmp_.jz_direct == pytest.approx(0.5, abs=1e-3)


def test_jz_methods_on_interferometer_output():
    trunc = truncation_for_coherent(0, 2)
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
