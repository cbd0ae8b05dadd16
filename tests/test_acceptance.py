"""End-to-end acceptance checks at their stated tolerances.

Each test covers one headline property of the toolbox and prints a PASS or
FAIL line (run pytest with -s to see them inline; they also appear in the
captured output).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from phonon_optics import (
    MotionalState,
    QubitState,
    Truncation,
    apply,
    beam_splitter,
    carrier_half_pulse,
    conditional_phase,
    default_times,
    direct_mean_phonon,
    entangled_cat,
    entangled_cat_u2u3,
    entangled_number,
    expect,
    fidelity,
    jcm_unitary,
    joint_bs_propagator,
    joint_state,
    jz_from_methods,
    level_sets,
    make_coherent,
    make_fock,
    mz_output,
    mz_report,
    number_distributions,
    parse,
    format_program,
    phase_shifter,
    reconstruct_single,
    reconstruct_two,
    signal,
    truncation_for_coherent,
)
from phonon_optics.cli import main as cli_main
from oracles import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    as_matrix,
    dense_annihilation,
    dense_jx,
    dense_jy,
    dense_number,
    entangled_cat_target,
    entangled_cat_u2u3_target,
    expm_oracle,
    unitarity_defect,
)
from phonon_optics.seqlang import ParseError
from seq_generator import random_program


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - start:.2f} s)")


def random_motional(rng, trunc):
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    amps /= np.linalg.norm(amps)
    return MotionalState(trunc, amps)


def test_criterion_1_beam_splitter_closed_forms():
    with criterion("1 beam-splitter closed forms"):
        start = time.perf_counter()
        t = Truncation(6)
        root2 = math.sqrt(2)
        for theta in np.linspace(0.0, 2 * math.pi, 32, endpoint=False):
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            c2, s2 = math.cos(theta), math.sin(theta)
            out = entangled_number("b1", "one_zero", theta, t)
            assert abs(out.amplitude(1, 0) - c) < 1e-12
            assert abs(out.amplitude(0, 1) - (-1j * s)) < 1e-12
            out = entangled_number("b2", "one_zero", theta, t)
            assert abs(out.amplitude(1, 0) - c) < 1e-12
            assert abs(out.amplitude(0, 1) - s) < 1e-12
            out = entangled_number("b1", "one_one", theta, t)
            assert abs(out.amplitude(1, 1) - c2) < 1e-12
            assert abs(out.amplitude(2, 0) - (-1j * s2 / root2)) < 1e-12
            assert abs(out.amplitude(0, 2) - (-1j * s2 / root2)) < 1e-12
            out = entangled_number("b2", "one_one", theta, t)
            assert abs(out.amplitude(1, 1) - c2) < 1e-12
            assert abs(out.amplitude(2, 0) - (-s2 / root2)) < 1e-12
            assert abs(out.amplitude(0, 2) - (s2 / root2)) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_coherent_product_rule():
    with criterion("2 coherent beam-splitter product rule"):
        start = time.perf_counter()
        t = Truncation(40)
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.0):
                s = make_coherent(alpha, beta, t)
                for theta in (math.pi / 2, 0.77):
                    out = apply(beam_splitter("b2", theta, t), s)
                    c, d = math.cos(theta / 2), math.sin(theta / 2)
                    target = make_coherent(alpha * c - beta * d, alpha * d + beta * c, t)
                    assert fidelity(out, target) >= 1 - 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_3_entangled_cats():
    with criterion("3 entangled cats"):
        t = Truncation(40)
        for alpha in (0.8, 1.5):
            for parity in ("even", "odd"):
                for theta in (math.pi / 2, 1.2):
                    out = entangled_cat(alpha, parity, theta, t)
                    target = entangled_cat_target(alpha, parity, theta, t)
                    assert fidelity(out, target) >= 1 - 1e-9
        for parity in ("even", "odd"):
            js = entangled_cat_u2u3(1.0, 2.0, parity, t)
            target = entangled_cat_u2u3_target(1.0, 2.0, parity, t)
            assert js.motional_fidelity(target) >= 1 - 1e-9
            assert js.qubit_fidelity(1, QubitState.plus()) >= 1 - 1e-12
            assert js.qubit_fidelity(2, QubitState.ground()) >= 1 - 1e-12


def test_criterion_4_mach_zehnder_statistics():
    with criterion("4 Mach-Zehnder statistics"):
        start = time.perf_counter()
        for n in (1, 4, 9):
            trunc = truncation_for_coherent(0, math.sqrt(n))
            state = make_coherent(0, math.sqrt(n), trunc)
            assert state.tail_mass < 1e-12
            for phi in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
                r = mz_report(state, float(phi))
                assert abs(r.mean_jz - n / 2 * math.cos(phi)) < 1e-8
                assert abs(r.mean_jz2 - n / 4 * (1 + n * math.cos(phi) ** 2)) < 1e-7
                assert abs(r.var_jz - n / 4) < 1e-8
            r = mz_report(state, math.pi / 2)
            assert abs(r.delta_phi - 1 / math.sqrt(n)) < 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_5_detection_equivalence():
    with criterion("5 probe signal equals exact dynamics"):
        rng = np.random.default_rng(2024)
        times = np.linspace(0.0, 8 * math.pi, 24)
        for _ in range(50):
            trunc = Truncation(int(rng.integers(2, 9)))
            s = random_motional(rng, trunc)
            for kind in ("single", "two"):
                trace = signal(s, 1.0, times, kind)
                for ti, want in zip(times, trace.values):
                    js = joint_state(s, ion2=QubitState.ground())
                    out = jcm_unitary(1.0, float(ti), trunc, kind).apply(js)
                    assert abs(out.ground_probability(2) - want) < 1e-12


def test_criterion_6_reconstruction_round_trip():
    with criterion("6 reconstruction round trip"):
        rng = np.random.default_rng(77)
        times = default_times(1.0, n_weights=10)
        # single-mode marginals for states with support up to m = 8
        for _ in range(5):
            s = random_motional(rng, Truncation(8))
            trace = signal(s, 1.0, times, "single", "c")
            p = reconstruct_single(trace, 8).p
            true_p = number_distributions(s).p_m
            assert np.abs(p - true_p).sum() < 1e-3
        # two-mode level sets
        for _ in range(5):
            s = random_motional(rng, Truncation(6))
            trace = signal(s, 1.0, times, "two")
            rec = reconstruct_two(trace, 9)
            true_q = level_sets(s)
            assert np.abs(rec.q - true_q).sum() < 1e-3
        # the identifiability limit: equal products give identical traces
        t = Truncation(6)
        amps = np.zeros(t.dim, complex)
        amps[t.index(2, 2)] = amps[t.index(1, 4)] = 1 / math.sqrt(2)
        states = [make_fock(2, 2, t), make_fock(1, 4, t), MotionalState(t, amps)]
        traces = [signal(s, 1.0, times, "two").values for s in states]
        for other in traces[1:]:
            assert np.max(np.abs(traces[0] - other)) < 1e-12


def test_criterion_7_direct_method():
    with criterion("7 direct mean-phonon method"):
        # closed form versus the explicit carrier + conditional-phase protocol
        rng = np.random.default_rng(5)
        for s in (
            make_fock(3, 1, Truncation(6)),
            make_coherent(1.2, 0.4, Truncation(25)),
            random_motional(rng, Truncation(7)),
        ):
            for mode in ("c", "r"):
                chi_t = 1e-3
                dist = number_distributions(s)
                p = dist.p_m if mode == "c" else dist.p_n
                closed = -float(np.sin(2 * chi_t * np.arange(p.size)) @ p)
                js = joint_state(s, ion2=QubitState.ground())
                js = conditional_phase(mode, chi_t, carrier_half_pulse(js))
                assert abs(js.expect_sigma_x(2) - closed) < 1e-12
        # linearized mean phonon number, relative error < 1e-4 at chi t = 1e-3
        for m in range(1, 11):
            est = direct_mean_phonon(make_fock(m, 0, Truncation(12)), 1e-3, "c")
            assert abs(est.mean_n_linearized - m) / m < 1e-4
        for nbar in (2.0, 4.0, 10.0):
            trunc = truncation_for_coherent(math.sqrt(nbar), 0)
            est = direct_mean_phonon(make_coherent(math.sqrt(nbar), 0, trunc), 1e-3, "c")
            assert abs(est.mean_n_linearized - nbar) / nbar < 1e-4
        # three-way comparison on the interferometer output
        trunc = truncation_for_coherent(0, 2)
        out = mz_output(make_coherent(0, 2, trunc), math.pi / 3)
        cmp_ = jz_from_methods(out)
        assert cmp_.max_pairwise_deviation < 1e-3


def test_criterion_8_structural_properties():
    with criterion("8 structural operator properties"):
        # unitarity of every constructed operator
        for trunc in (Truncation(6), Truncation(40)):
            for kind in ("b1", "b2"):
                for theta in (0.3, math.pi / 2, 2 * math.pi):
                    assert unitarity_defect(beam_splitter(kind, theta, trunc)) < 1e-12
            for mode in ("c", "r"):
                assert unitarity_defect(phase_shifter(mode, 0.9, trunc)) < 1e-12
            for kind in ("single", "two"):
                assert unitarity_defect(jcm_unitary(1.0, 0.7, trunc, kind)) < 1e-12

        # exact number conservation: no support leaves a total-number block
        t6 = Truncation(6)
        u = beam_splitter("b1", 1.234, t6)
        ms, ns = t6.mode_numbers()
        for m in range(7):
            for n in range(7 - m):
                out = apply(u, make_fock(m, n, t6))
                assert np.all(out.amps[(ms + ns) != m + n] == 0)

        # dense-exponential oracle equivalence at small truncation
        theta, phi, chi_t = 0.81, 0.37, 0.25
        assert np.max(np.abs(
            as_matrix(beam_splitter("b1", theta, t6))
            - expm_oracle(dense_jx(t6), theta))) < 1e-10
        assert np.max(np.abs(
            as_matrix(beam_splitter("b2", theta, t6))
            - expm_oracle(dense_jy(t6), theta))) < 1e-10
        assert np.max(np.abs(
            as_matrix(phase_shifter("c", phi, t6))
            - expm_oracle(dense_number(t6, "c"), -phi))) < 1e-10

        psi = make_coherent(0.5, 0.8, t6)
        js1 = joint_state(psi, ion1=QubitState.of(0.6, 0.8j))
        gen = np.kron(SIGMA_X, dense_jx(t6))
        want = expm_oracle(gen, theta) @ js1.amps.ravel()
        got = joint_bs_propagator("u1", theta, js1).amps.ravel()
        assert np.max(np.abs(want - got)) < 1e-10

        js2 = joint_state(psi, ion2=QubitState.of(0.8, -0.6))
        gen = np.kron(SIGMA_Z + 0.5 * np.eye(2), dense_number(t6, "c"))
        want = expm_oracle(gen, chi_t) @ js2.amps.ravel()
        got = conditional_phase("c", chi_t, js2).amps.ravel()
        assert np.max(np.abs(want - got)) < 1e-10

        a = dense_annihilation(t6, "c")
        h = 1.3 * (np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, a.conj().T))
        want = expm_oracle(h, 0.9) @ js2.amps.ravel()
        got = jcm_unitary(1.3, 0.9, t6, "single").apply(js2).amps.ravel()
        assert np.max(np.abs(want - got)) < 1e-10

        # sigma_x eigenstates stay factorized under the joint propagators
        for kind, bs_kind in (("u1", "b1"), ("u2", "b2")):
            for qubit, sign in ((QubitState.plus(), 1.0), (QubitState.minus(), -1.0)):
                js = joint_state(psi, ion1=qubit)
                out = joint_bs_propagator(kind, 1.1, js)
                assert out.qubit_fidelity(1, qubit) >= 1 - 1e-12
                rotated = apply(beam_splitter(bs_kind, sign * 1.1, t6), psi)
                assert out.motional_fidelity(rotated) >= 1 - 1e-12


def test_criterion_9_parser_and_cli_contract(tmp_path, capsys):
    with criterion("9 parser round trip and CLI exit codes"):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            program = random_program(rng)
            assert parse(format_program(program)).statements == program.statements

        # every grammar-error class yields a located diagnostic
        cases = [
            "bs1 pi/2",                              # init not first
            "init fock 0 0 nmax 2\nwarp 1",          # unknown verb
            "init fock 0 0 nmax 2\nbs1",             # missing argument
            "init fock 0 0 nmax 2\nbs1 quick",       # type mismatch
            "init fock 0 0 nmax 2\nbs1 0.1 0.2",     # extra argument
            "init fock 3 3 nmax 4",                  # index beyond nmax
            "init fock 0 0 nmax 2\nps q 0.3",        # bad enum
            "",                                       # missing init
        ]
        for text in cases:
            with pytest.raises(ParseError) as exc_info:
                parse(text)
            assert exc_info.value.line >= 1
            assert exc_info.value.col >= 1

        good = tmp_path / "ok.seq"
        good.write_text("init fock 1 0 nmax 4\nbs1 pi/2\nreport\n")
        assert cli_main(["run", str(good), "--out", str(tmp_path)]) == 0
        bad = tmp_path / "bad.seq"
        bad.write_text("init fock 9 9 nmax 4\n")
        assert cli_main(["run", str(bad)]) == 1
        runtime = tmp_path / "runtime.seq"
        runtime.write_text("init cat 0 0 odd c nmax 4\n")
        assert cli_main(["run", str(runtime)]) == 2
        assert cli_main(["run", str(tmp_path / "missing.seq")]) == 3
        capsys.readouterr()
