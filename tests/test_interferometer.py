import math

import numpy as np
import pytest

from phonon_optics import (
    Truncation,
    apply,
    beam_splitter,
    expect,
    fidelity,
    make_coherent,
    make_fock,
    mz_output,
    mz_report,
    phase_sweep,
    sweep_to_csv,
    truncation_for_coherent,
)
from oracles import dense_jx, dense_number, expm_oracle, seeded_state


def coherent_input(n):
    trunc = truncation_for_coherent(0, math.sqrt(n))
    state = make_coherent(0, math.sqrt(n), trunc)
    assert state.tail_mass < 1e-12
    return state


def dense_pipeline(trunc, phi):
    """Independent dense composition of the three interferometer factors."""
    half = expm_oracle(dense_jx(trunc), -math.pi / 2)  # exp(+i pi/2 Jx)
    phase = expm_oracle(dense_number(trunc, "c"), -phi)  # exp(+i phi n_c)
    return half @ phase @ half


def test_vacuum_passes_through():
    t = Truncation(6)
    vac = make_fock(0, 0, t)
    for phi in (0.0, 1.0, math.pi):
        assert fidelity(mz_output(vac, phi), vac) == pytest.approx(1.0, abs=1e-12)


def test_mean_jz_at_zero_phase():
    state = coherent_input(4)
    out = mz_output(state, 0.0)
    assert expect(out, "jz") == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 4), (2, 2)])
def test_fock_inputs_match_dense_composition(m, n):
    t = Truncation(6)
    for phi in (0.4, math.pi):
        want = dense_pipeline(t, phi) @ make_fock(m, n, t).amps
        got = mz_output(make_fock(m, n, t), phi).amps
        assert np.max(np.abs(want - got)) < 1e-10


@pytest.mark.parametrize("n", [1, 4])
def test_coherent_statistics(n):
    state = coherent_input(n)
    for phi in (0.0, 0.9, math.pi / 2, 2.5):
        r = mz_report(state, phi)
        assert r.mean_jz == pytest.approx(n / 2 * math.cos(phi), abs=1e-8)
        assert r.mean_jz2 == pytest.approx(n / 4 * (1 + n * math.cos(phi) ** 2), abs=1e-7)
        assert r.var_jz == pytest.approx(n / 4, abs=1e-8)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_phase_error_minimum(n):
    state = coherent_input(n)
    r = mz_report(state, math.pi / 2)
    assert r.delta_phi == pytest.approx(1 / math.sqrt(n), abs=1e-6)


def test_phase_error_off_minimum():
    # error propagation gives 1/(sqrt(n) sin(phi)) for the coherent input
    state = coherent_input(4)
    for phi in (0.5, 1.0, 2.0):
        r = mz_report(state, phi)
        assert r.delta_phi == pytest.approx(1 / (2 * math.sin(phi)), abs=1e-6)


def test_flat_signal_reports_infinite_error():
    state = coherent_input(1)
    r = mz_report(state, 0.0)  # cos has zero slope at phi = 0
    assert math.isinf(r.delta_phi)


def test_two_pi_periodicity():
    state = make_coherent(0.4, 1.1, Truncation(25))
    for phi in (0.3, 1.7):
        a = mz_report(state, phi)
        b = mz_report(state, phi + 2 * math.pi)
        assert a.mean_jz == pytest.approx(b.mean_jz, abs=1e-10)
        assert a.mean_jz2 == pytest.approx(b.mean_jz2, abs=1e-10)
        assert a.delta_phi == pytest.approx(b.delta_phi, abs=1e-10)


def test_total_phonon_number_conserved():
    state = make_coherent(0.8, 0.6, Truncation(25))
    before = expect(state, "nc") + expect(state, "nr")
    out = mz_output(state, 1.234)
    after = expect(out, "nc") + expect(out, "nr")
    assert after == pytest.approx(before, abs=1e-12)


def test_phase_sweep_single_point_matches_report():
    state = coherent_input(1)
    single = phase_sweep(state, [0.7])[0]
    direct = mz_report(state, 0.7)
    slots = type(single).__slots__
    assert [getattr(single, f) for f in slots] == [getattr(direct, f) for f in slots]


def test_phase_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="nonempty"):
        phase_sweep(coherent_input(1), [])


def test_phase_sweep_cosine_fit():
    t = Truncation(40)
    state = make_coherent(0, 2, t)
    grid = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    reports = phase_sweep(state, grid)
    worst = max(abs(r.mean_jz - 2 * math.cos(r.phi)) for r in reports)
    assert worst < 1e-9


def test_phase_sweep_vacuum_is_flat_zero():
    t = Truncation(5)
    reports = phase_sweep(make_fock(0, 0, t), np.linspace(0, 6.0, 16))
    assert all(abs(r.mean_jz) < 1e-13 for r in reports)


def test_jx_eigenstate_has_zero_variance_at_quadrature():
    # exp(-i pi/2 Jy) |60, 0> is a Jx eigenstate with <Jx> = 30; at
    # phi = +-pi/2 the output Jz is +-Jx, so its variance vanishes.  A
    # per-point <Jz^2> - <Jz>^2 loses about 1e-12 to cancellation here.
    t = Truncation(60)
    state = apply(beam_splitter("b2", math.pi / 2, t), make_fock(60, 0, t))
    for r in phase_sweep(state, [math.pi / 2, -math.pi / 2]):
        assert abs(r.mean_jz) == pytest.approx(30.0, abs=1e-10)
        assert abs(r.var_jz) < 1e-20
        assert r.mean_jz2 == pytest.approx(900.0, abs=1e-10)


def test_phase_sweep_rejects_non_finite_phase():
    state = coherent_input(1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            phase_sweep(state, [0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            mz_report(state, bad)


def test_sweep_csv_format():
    state = coherent_input(1)
    text = sweep_to_csv(phase_sweep(state, [0.0, math.pi / 2]))
    lines = text.strip().splitlines()
    assert lines[0] == "phi,mean_jz,mean_jz2,var_jz,dmeanjz_dphi,delta_phi"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.5, abs=1e-9)
    # infinities must survive the round trip through text
    assert math.isinf(float(first[5]))


@pytest.mark.parametrize("seed", range(40))
def test_sweep_at_phi_zero_reads_the_package_jz_and_jx(seed):
    # at phi = 0 the output <Jz> is -<Jz> of the input and its slope <Jx>;
    # the sweep takes both from expect, so the row holds them bit for bit
    # (its own jz_diag @ |amps|^2 and vdot(amps, Jx amps) differed in the
    # last bits on most of these states)
    s = seeded_state(seed)
    (row,) = phase_sweep(s, [0.0])
    assert row.mean_jz == -expect(s, "jz")
    assert row.dmeanjz_dphi == expect(s, "jx")
