import cmath
import fractions
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

import phonon_optics as po
from phonon_optics import fockspace
from phonon_optics import (
    JointState,
    MotionalState,
    QubitState,
    Truncation,
    coherent_superposition,
    expect,
    fidelity,
    inner,
    joint_state,
    make_cat,
    make_coherent,
    make_fock,
    number_distributions,
    reduced_purity,
    state_from_json,
    state_to_json,
    truncation_for_coherent,
)
from oracles import seeded_state


def poisson_pmf(lam, k):
    return math.exp(-lam) * lam**k / math.factorial(k)


def test_truncation_dimension():
    assert Truncation(0).dim == 1
    assert Truncation(4).dim == 15
    assert Truncation(40).dim == 41 * 42 // 2


def test_truncation_rejects_negative():
    with pytest.raises(ValueError):
        Truncation(-1)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", None, True, False, np.True_])
def test_truncation_rejects_non_integer(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        Truncation(bad)


def test_truncation_takes_numpy_integers():
    t = Truncation(np.int64(4))
    assert type(t.n_total_max) is int
    assert t == Truncation(4) and t.dim == 15


@pytest.mark.parametrize(
    "m, n, what", [(True, False, "m"), (0, True, "n"), (1.5, 0, "m"), (0, "1", "n")]
)
def test_fock_indices_must_be_integers_and_not_bools(m, n, what):
    # a bool passes operator.index as 0 or 1; a float would reach NumPy's indexing
    with pytest.raises(ValueError, match=f"{what} must be an integer, got"):
        make_fock(m, n, Truncation(2))


def test_fock_indices_take_numpy_integers():
    assert make_fock(np.int64(1), np.int32(0), Truncation(2)).amplitude(1, 0) == 1.0


def _memory_limit_with(monkeypatch, tmp_path, text):
    """fockspace._memory_limit_bytes() with memory.max holding ``text``."""
    path = tmp_path / "memory.max"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(fockspace, "_CGROUP_MEMORY_MAX", str(path))
    return fockspace._memory_limit_bytes()


def test_memory_limit_is_the_smaller_of_ram_and_cgroup(monkeypatch, tmp_path):
    ram = _memory_limit_with(monkeypatch, tmp_path, None)  # no cgroup v2 file
    assert ram is None or ram > 4096
    assert _memory_limit_with(monkeypatch, tmp_path, "max\n") == ram
    assert _memory_limit_with(monkeypatch, tmp_path, "4096\n") == 4096
    if ram is not None:
        assert _memory_limit_with(monkeypatch, tmp_path, f"{2 * ram}\n") == ram


def test_memory_limit_reads_cgroup_v1(monkeypatch, tmp_path):
    v1 = tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(fockspace, "_CGROUP_V1_LIMIT", str(v1))
    ram = _memory_limit_with(monkeypatch, tmp_path, None)  # neither cgroup file
    v1.write_text("9223372036854771712\n")  # v1's "no limit"
    assert _memory_limit_with(monkeypatch, tmp_path, None) == ram
    v1.write_text("8192\n")
    assert _memory_limit_with(monkeypatch, tmp_path, None) == 8192
    assert _memory_limit_with(monkeypatch, tmp_path, "4096\n") == 4096
    assert _memory_limit_with(monkeypatch, tmp_path, "max\n") == 8192


def test_truncation_index_ordering():
    t = Truncation(3)
    ms, ns = t.mode_numbers()
    # lexicographic (total, m): block N occupies indices N(N+1)/2 ..
    assert list(zip(ms[:6], ns[:6])) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for i, (m, n) in enumerate(zip(ms, ns)):
        assert t.index(int(m), int(n)) == i


def test_flat_index_block_and_mode_numbers_share_one_layout():
    # an independent enumeration of the (total, m) order, against every
    # function that reads the layout
    for nmax in range(31):
        t = Truncation(nmax)
        pairs = [(m, total - m) for total in range(nmax + 1) for m in range(total + 1)]
        assert t.dim == len(pairs)
        ms, ns = t.mode_numbers()
        assert list(zip(ms.tolist(), ns.tolist())) == pairs
        assert [t.index(m, n) for m, n in pairs] == list(range(t.dim))
        m_arr, n_arr = np.array(pairs).T
        assert t.flat(m_arr, n_arr).tolist() == list(range(t.dim))
        for total in range(nmax + 1):
            block = [pairs[i] for i in range(t.dim)[t.block(total)]]
            assert block == [(m, total - m) for m in range(total + 1)]
    with pytest.raises(ValueError, match="no block for total = 11"):
        Truncation(10).block(11)


def test_make_fock_basic():
    t = Truncation(4)
    s = make_fock(1, 0, t)
    assert s.amplitude(1, 0) == 1.0
    assert abs(np.vdot(s.amps, s.amps) - 1) < 1e-15
    assert s.tail_mass == 0.0


def test_make_fock_vacuum_in_trivial_space():
    t = Truncation(0)
    s = make_fock(0, 0, t)
    assert s.amps.shape == (1,)
    assert s.amplitude(0, 0) == 1.0


def test_make_fock_rejects_out_of_truncation():
    with pytest.raises(ValueError, match="outside truncation"):
        make_fock(2, 3, Truncation(4))


def test_coherent_vacuum():
    s = make_coherent(0, 0, Truncation(5))
    assert s.amplitude(0, 0) == pytest.approx(1.0, abs=1e-15)
    assert s.tail_mass == 0.0
    assert not s.flagged


def test_coherent_poisson_marginal():
    # |0>_c |beta=2>_r: p_n is Poisson with mean 4
    s = make_coherent(0, 2, Truncation(30))
    assert s.tail_mass < 1e-12
    d = number_distributions(s)
    for n in range(20):
        assert d.p_n[n] == pytest.approx(poisson_pmf(4.0, n), abs=1e-12)
    assert expect(s, "nr") == pytest.approx(4.0, abs=1e-9)


def test_coherent_tail_mass_flagging():
    # alpha = beta = 1 at n_total_max = 2 keeps weight exp(-2) * sum_{m+n<=2} 1/(m! n!)
    s = make_coherent(1, 1, Truncation(2))
    retained = math.exp(-2) * (1 + 1 + 1 + 0.5 + 1 + 0.5)
    assert s.tail_mass == pytest.approx(1 - retained, abs=1e-12)
    assert s.flagged


def test_coherent_moments_are_poissonian():
    beta = 1.7
    s = make_coherent(0, beta, Truncation(40))
    assert s.tail_mass < 1e-12
    d = number_distributions(s)
    n = np.arange(d.p_n.size)
    mean = float(n @ d.p_n)
    var = float((n**2) @ d.p_n) - mean**2
    assert mean == pytest.approx(beta**2, abs=1e-9)
    assert var == pytest.approx(beta**2, abs=1e-9)


def test_cat_even_alpha_zero_is_vacuum():
    s = make_cat(0, "even", "c", Truncation(4))
    assert s.amplitude(0, 0) == pytest.approx(1.0, abs=1e-15)


def test_cat_odd_alpha_zero_rejected():
    with pytest.raises(ValueError, match="^superposition has zero norm$"):
        make_cat(0, "odd", "c", Truncation(4))


def test_an_odd_cat_whose_norm_once_rounded_to_zero_builds():
    # |alpha|^2 = 2.5e-17: exp(-2 |alpha|^2) rounds to 1, so a norm^2 summed as
    # 2 - 2 exp(...) was 0, and the cat was refused as the zero vector
    s = make_cat(5e-9, "odd", "c", Truncation(4))
    assert np.allclose(s.amps, make_fock(1, 0, s.trunc).amps, rtol=0.0, atol=1e-15)
    assert s.tail_mass <= 1e-15 and not s.flagged


def cat_tail(r2, parity, n):
    """The float closed form of a cat's tail P(N > n) at |alpha|^2 = r2:
    2 sum_{k > n, k of the parity} e^-r2 r2^k / k!, over 1 + s e^(-2 r2),
    with -expm1(-2 r2) as the odd denominator.  Where n < r2 it is summed
    as 1 minus the kept side, which then holds less mass, so the rounding
    of each log-space term, near 1e-12 at r2 = 1600, stays small."""
    odd = parity == "odd"
    top = max(n, int(r2 + 40.0 * math.sqrt(r2))) + 100
    pmf = {k: math.exp(k * math.log(r2) - r2 - math.lgamma(k + 1.0))
           for k in range(int(odd), top + 1, 2)}
    denominator = -math.expm1(-2.0 * r2) if odd else 1.0 + math.exp(-2.0 * r2)
    if n < r2:
        return 1.0 - 2.0 * math.fsum(p for k, p in pmf.items() if k <= n) / denominator
    return 2.0 * math.fsum(p for k, p in pmf.items() if k > n) / denominator


def test_a_cat_tail_is_its_closed_form_at_every_amplitude():
    # a seeded sweep, not hypothesis: |alpha| = 10^U(-12, log10 40), both
    # parities and modes, nmax 0..119.  The norm^2 of an odd cat used to be
    # summed as 2 - 2 exp(-2 |alpha|^2), which cancels at small |alpha|: such
    # cats were refused as the zero vector or read a tail up to 0.49 off
    rng = random.Random(43)
    for _ in range(500):
        r, phase = 10.0 ** rng.uniform(-12.0, math.log10(40.0)), rng.uniform(0.0, 2 * math.pi)
        alpha = cmath.rect(r, phase)
        parity, mode, n = rng.choice(("even", "odd")), rng.choice("cr"), rng.randrange(120)
        want = cat_tail(abs(alpha) ** 2, parity, n)
        case = (alpha, parity, mode, n)
        try:
            s = make_cat(alpha, parity, mode, Truncation(n))
        except ValueError as e:  # every kept probability underflows
            assert str(e).startswith("all amplitude mass lies outside the truncation"), case
            assert want >= 1.0 - 1e-13, case
            continue
        assert abs(s.tail_mass - want) <= 1e-13, case


def test_cat_odd_support():
    s = make_cat(1, "odd", "c", Truncation(20))
    ms, ns = s.trunc.mode_numbers()
    # support only on odd m with the breathing mode in vacuum, exactly
    assert np.all(s.amps[ns != 0] == 0)
    assert np.all(s.amps[ms % 2 == 0] == 0)
    # amplitudes match the explicit expansion N_- (|alpha> - |-alpha>)
    norm = 1 / math.sqrt(2 * (1 - math.exp(-2)))
    for m in (1, 3, 5, 7):
        want = norm * 2 * math.exp(-0.5) / math.sqrt(math.factorial(m))
        assert s.amplitude(m, 0) == pytest.approx(want, abs=1e-12)


def test_cat_even_parity_exact():
    s = make_cat(1.3, "even", "r", Truncation(30))
    _, ns = s.trunc.mode_numbers()
    assert np.all(s.amps[ns % 2 == 1] == 0)
    d = number_distributions(s)
    parity = sum((-1) ** n * p for n, p in enumerate(d.p_n))
    assert parity == pytest.approx(1.0, abs=1e-12)


def test_cat_validates_arguments():
    with pytest.raises(ValueError):
        make_cat(1, "weird", "c", Truncation(4))
    with pytest.raises(ValueError):
        make_cat(1, "even", "x", Truncation(4))


def test_inner_self_and_orthogonal():
    t = Truncation(4)
    a = make_fock(1, 0, t)
    b = make_fock(0, 1, t)
    assert inner(a, a) == pytest.approx(1.0)
    assert inner(a, b) == 0.0
    assert fidelity(a, b) == 0.0


def test_inner_requires_matching_truncation():
    with pytest.raises(ValueError, match="truncation mismatch"):
        inner(make_fock(0, 0, Truncation(2)), make_fock(0, 0, Truncation(3)))


def test_inner_coherent_overlap():
    # <alpha=1 | alpha=-1> = exp(-|1 - (-1)|^2 / 2) = exp(-2)
    t = Truncation(30)
    a = make_coherent(1, 0, t)
    b = make_coherent(-1, 0, t)
    assert inner(a, b) == pytest.approx(math.exp(-2), abs=1e-12)


def test_number_distributions_fock():
    t = Truncation(4)
    d = number_distributions(make_fock(1, 0, t))
    assert d.p[t.index(1, 0)] == 1.0 and d.p.sum() == 1.0
    assert d.mean_jz == pytest.approx(0.5)


def test_number_distributions_single_phonon_superposition():
    t = Truncation(4)
    amps = np.zeros(t.dim, complex)
    amps[t.index(1, 0)] = 1 / math.sqrt(2)
    amps[t.index(0, 1)] = -1j / math.sqrt(2)
    d = number_distributions(MotionalState(t, amps))
    assert d.p_m[0] == pytest.approx(0.5)
    assert d.p_m[1] == pytest.approx(0.5)
    assert d.mean_jz == pytest.approx(0.0, abs=1e-15)


def test_number_distributions_coherent_mean():
    d = number_distributions(make_coherent(0, 2, Truncation(30)))
    assert d.mean_jz == pytest.approx(-2.0, abs=1e-9)


def test_marginals_consistent_with_expect():
    rng = np.random.default_rng(3)
    t = Truncation(7)
    for _ in range(5):
        amps = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
        amps /= np.linalg.norm(amps)
        s = MotionalState(t, amps)
        d = number_distributions(s)
        assert d.p_m.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.p_n.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.mean_jz == pytest.approx(expect(s, "jz"), abs=1e-12)


def test_expect_jz_fock():
    assert expect(make_fock(1, 0, Truncation(3)), "jz") == pytest.approx(0.5)


def test_expect_jx_single_phonon():
    # (|1,0> + |0,1>)/sqrt(2) lies in the 2x2 block with off-diagonal 1/2
    t = Truncation(3)
    amps = np.zeros(t.dim, complex)
    amps[t.index(1, 0)] = amps[t.index(0, 1)] = 1 / math.sqrt(2)
    s = MotionalState(t, amps)
    assert expect(s, "jx") == pytest.approx(0.5, abs=1e-14)
    assert expect(s, "jy") == pytest.approx(0.0, abs=1e-14)
    s = make_coherent(0.3, 0.2, t)
    assert expect(s, "jx") == pytest.approx(0.06, abs=2e-3)  # alpha beta at a small cutoff


def test_expect_rejects_unknown():
    message = "observable must be 'jx' or 'jy' or 'jz' or 'jz2' or 'nc' or 'nr', got 'jw'"
    with pytest.raises(ValueError, match=re.escape(message)):
        expect(make_fock(0, 0, Truncation(1)), "jw")


def test_norm_validation():
    t = Truncation(2)
    with pytest.raises(ValueError, match="not normalized"):
        MotionalState(t, np.ones(t.dim))


def test_motional_state_rejects_non_finite_amplitudes():
    t = Truncation(2)
    with pytest.raises(ValueError, match="non-finite"):
        MotionalState(t, np.full(t.dim, np.nan))


def test_reduced_purity_product_and_entangled():
    t = Truncation(4)
    assert reduced_purity(make_fock(2, 1, t)) == pytest.approx(1.0)
    amps = np.zeros(t.dim, complex)
    amps[t.index(1, 0)] = 1 / math.sqrt(2)
    amps[t.index(0, 1)] = -1j / math.sqrt(2)
    assert reduced_purity(MotionalState(t, amps)) == pytest.approx(0.5, abs=1e-12)


def test_state_json_round_trip():
    s = make_coherent(0.3 + 0.1j, -0.4, Truncation(12))
    text = state_to_json(s)
    data = json.loads(text)
    assert data["n_total_max"] == 12
    back = state_from_json(text)
    assert fidelity(s, back) == pytest.approx(1.0, abs=1e-15)
    assert back.tail_mass == s.tail_mass
    # a flag set at construction used to come back recomputed from the tail
    cut = make_coherent(2.0, 0, Truncation(14))  # tail 2.0e-5
    assert cut.flagged and state_from_json(state_to_json(cut)).flagged
    # a document without a tail is a state that discarded nothing
    assert state_from_json('{"n_total_max": 2, "amps": [[0, 0, 1, 0]]}').tail_mass == 0.0


STATE = '"n_total_max": 2, "amps": [[0, 0, 1, 0]]'


@pytest.mark.parametrize("text, message", [
    # a non-integer cutoff and pair used to be truncated in silence
    ('{"n_total_max": 2.7, "amps": [[0.9, 0, 1, 0]]}',
     "n_total_max must be an integer, got 2.7"),
    ('{"n_total_max": "3", "amps": [[0, 0, 1, 0]]}',
     "n_total_max must be an integer, got '3'"),
    ('{"n_total_max": true, "amps": [[0, 0, 1, 0]]}',
     "n_total_max must be an integer, got True"),
    ('{"n_total_max": "%s", "amps": []}' % ("3" * 5000),
     "n_total_max must be an integer, got '333"),
    ('{"n_total_max": 2, "amps": [[false, true, 1, 0]]}',
     "amps[0] m must be an integer, got False"),
    ('{%s, "tail_mass": "0.5"}' % STATE, "tail_mass must be a number, got '0.5'"),
    ('{%s, "tail_mass": NaN}' % STATE, "tail_mass must lie in [0, 1], got nan"),
    # these used to escape as TypeError, KeyError and Python's own integer limit
    ('{"n_total_max": 2, "amps": [[0, 0, "1", 0]]}',
     "amps[0] re must be a number, got '1'"),
    ('{"n_total_max": 2}', "state JSON must be an object with an 'amps' list"),
    ('[[0, 0, 1, 0]]', "state JSON must be an object with an 'amps' list"),
    ('{"n_total_max": %s, "amps": []}' % ("9" * 5000),
     "a JSON integer has 5000 digits, too many to read as an integer"),
    ('{"n_total_max": 2, "amps": [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]]}',
     "amps[2] lists (m, n) = (0, 0) a second time"),
    ('{"n_total_max": 2, "amps": [[0, 0, 1, %s]]}' % ("9" * 400),
     "amps[0] im must be finite, got an integer beyond the float range"),
    ('{"n_total_max": 2, "amps": [[0, 0, 1e999, 0]]}',
     "amps[0] re must be finite, got inf"),
    ('{"n_total_max": 2, "amps": [[0, 0, 1]]}', "amps[0] must be a row [m, n, re, im]"),
    ('{"n_total_max": 2, "amps": [[0, 3, 1, 0]]}', "(m, n) = (0, 3) outside truncation"),
    ("[" * 100000 + "]" * 100000, "state JSON is nested too deeply"),
], ids=["float-cutoff", "string-cutoff", "bool-cutoff", "long-string-cutoff", "bool-pair",
        "string-tail", "nan-tail", "string-amplitude", "no-amps", "top-level-list",
        "long-integer", "pair-twice", "huge-integer-amplitude", "infinite-amplitude",
        "short-row", "pair-outside", "deep-nesting"])
def test_state_from_json_refuses_what_state_to_json_never_writes(text, message):
    with pytest.raises(ValueError) as info:
        state_from_json(text)
    assert type(info.value) is ValueError
    assert message in str(info.value)
    assert len(str(info.value)) < 120  # what it read is echoed in at most 40 characters


def test_distribution_csv_format():
    d = number_distributions(make_fock(1, 1, Truncation(2)))
    lines = d.to_csv().strip().splitlines()
    assert lines[0] == "m,n,p"
    assert lines[1:4] == ["0,0,0", "0,1,0", "1,0,0"]
    assert lines[5] == "1,1,1"


def test_distribution_reads_its_layout_from_the_state_truncation(monkeypatch):
    t = Truncation(5)
    d = number_distributions(make_coherent(0.6, 0.4j, t))
    assert d.trunc is t
    csv = d.to_csv()

    def refuse(self, n_total_max):
        raise RuntimeError("a distribution built a second truncation")

    monkeypatch.setattr(fockspace.Truncation, "__init__", refuse)
    assert d.to_csv() == csv


@pytest.mark.parametrize("nmax", [300, 1000])
def test_number_distributions_peaks_at_two_flat_arrays(nmax):
    # p = |c_mn|^2 and one temporary of its size; the marginals are O(nmax)
    t = Truncation(nmax)
    rng = np.random.default_rng(nmax)
    amps = rng.normal(size=t.dim) + 1j * rng.normal(size=t.dim)
    s = MotionalState(t, amps / np.linalg.norm(amps))
    tracemalloc.start()
    try:
        number_distributions(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * t.dim + 2**16


def test_truncation_for_coherent_tail():
    assert truncation_for_coherent(0, 0) == Truncation(0)
    for alpha, beta in ((0, 1), (0, 2), (0, 3), (1, 2)):
        t = truncation_for_coherent(alpha, beta)
        s = make_coherent(alpha, beta, t)
        assert s.tail_mass < 1e-12
        assert not s.flagged


def _exact_poisson_tail(lam: int, n: int) -> float:
    """P(N > n) for an integer mean ``lam``: exp(-lam) times a rational sum to n + 400."""
    terms = (fractions.Fraction(lam**k, math.factorial(k)) for k in range(n + 1, n + 401))
    return math.exp(-lam) * float(sum(terms))


def test_a_coherent_product_reports_its_poisson_tail():
    # P(N > 40) at mean 4, far below the 1e-16 rounding floor of 1 - retained / norm^2
    assert make_coherent(0, 2, Truncation(40)).tail_mass == pytest.approx(
        2.9255511651946e-27, rel=1e-12, abs=0.0)
    for alpha, beta, nmax in ((0, 1, 5), (5, 0, 60), (3, 4, 120), (4, 4, 300)):
        want = _exact_poisson_tail(alpha**2 + beta**2, nmax)
        assert make_coherent(alpha, beta, Truncation(nmax)).tail_mass == pytest.approx(
            want, rel=1e-12, abs=0.0)
    for alpha, beta in ((0, 1), (0.3, 2j), (1, 2), (5, -3), (20, 3)):
        t = truncation_for_coherent(alpha, beta)
        assert make_coherent(alpha, beta, t).tail_mass <= fockspace.COHERENT_TAIL_TARGET


def test_a_product_truncated_below_its_mean_reports_nearly_all_its_mass_as_tail():
    # P(N > 300) at mean 400, from a 50-digit mpmath sum of the pmf over 0..300
    assert make_coherent(20, 0, Truncation(300)).tail_mass == pytest.approx(
        0.99999989896039848042, rel=1e-12, abs=0.0)


def test_a_superposition_keeps_the_tail_against_its_exact_norm():
    # an even cat at |alpha|^2 = 4: two terms, so 1 - retained / norm^2, not a Poisson tail
    s = make_cat(2, "even", "c", Truncation(40))
    assert 0.0 <= s.tail_mass < 1e-15
    assert make_cat(2, "even", "c", Truncation(4)).tail_mass == pytest.approx(
        1 - (1 + 4**2 / 2 + 4**4 / 24) / math.cosh(4), rel=1e-12)


def test_coherent_beyond_exp_underflow():
    # exp(-|alpha|^2 / 2) underflows for |alpha| above ~38.6; the state must not
    alpha, nmax = 39.0, 1700
    s = make_coherent(alpha, 0, Truncation(nmax))
    lam = alpha**2
    log_pmf = [k * math.log(lam) - lam - math.lgamma(k + 1.0) for k in range(nmax + 1)]
    pmf = np.exp(log_pmf)
    kept = pmf.sum()
    # nmax sits 4.6 standard deviations above the mean: a real, flagged tail
    assert s.tail_mass == pytest.approx(1.0 - kept, rel=1e-3)
    assert s.flagged
    p_m = number_distributions(s).p_m
    assert np.max(np.abs(p_m - pmf / kept)) < 1e-12
    assert expect(s, "nc") == pytest.approx(float(np.arange(nmax + 1) @ pmf) / kept, rel=1e-12)


def test_truncation_for_coherent_beyond_exp_underflow():
    # exp(-lambda) underflows for lambda above ~745; here lambda = 1521
    t = truncation_for_coherent(39, 0)
    lam = 39.0**2

    def tail_above(n):
        terms = [k * math.log(lam) - lam - math.lgamma(k + 1.0)
                 for k in range(n + 1, n + 2000)]
        return float(np.sum(np.exp(terms)))

    assert tail_above(t.n_total_max) <= 1e-12 < tail_above(t.n_total_max - 1)
    s = make_coherent(39, 0, t)
    assert not s.flagged


@pytest.mark.parametrize("tail_mass", [0.0, 1e-10, 1.0000001e-10, 2.0e-5])
def test_flagged_is_tail_mass_above_tolerance(tail_mass):
    # the stored fields, in order; flagged is derived, not stored
    assert MotionalState.__slots__ == ("trunc", "amps", "tail_mass")
    assert JointState.__slots__ == ("trunc", "ions", "amps", "tail_mass")
    t = Truncation(2)
    s = MotionalState(t, make_fock(1, 0, t).amps, tail_mass)
    want = tail_mass > fockspace.DEFAULT_TAIL_TOLERANCE
    js = joint_state(s, ion2=QubitState.ground())
    for derived in (s, state_from_json(state_to_json(s)), s.with_amps(s.amps), js,
                    js.with_amps(js.amps)):
        assert derived.tail_mass == tail_mass
        assert derived.flagged == want
    # an undefined tail would read as unflagged, so neither state takes one
    with pytest.raises(ValueError, match="tail_mass must lie in"):
        MotionalState(t, s.amps, math.nan)
    with pytest.raises(ValueError, match="tail_mass must lie in"):
        JointState(t, (2,), js.amps, math.nan)


def test_tail_mass_may_reach_one_and_no_further():
    t = Truncation(1)
    assert MotionalState(t, [1, 0, 0], 1.0).tail_mass == 1.0
    with pytest.raises(ValueError, match=re.escape("tail_mass must lie in [0, 1], got 1.5")):
        MotionalState(t, [1, 0, 0], 1.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda t: make_coherent(1e200, 0, t),
        lambda t: make_coherent(0, 2e154j, t),
        lambda t: make_cat(-1e200, "even", "r", t),
        lambda t: coherent_superposition([(1.0, 0.5, 0.0), (1.0, 0.0, 1e300)], t),
        lambda t: truncation_for_coherent(3e154, 0),
        lambda t: make_coherent(math.inf, 0, t),
        lambda t: make_cat(complex(0, math.nan), "odd", "c", t),
    ],
    ids=["coherent", "imaginary", "cat", "superposition", "truncation", "inf", "nan"],
)
def test_overflowing_coherent_amplitude_is_refused(build):
    # |alpha|^2 overflows a float above |alpha| ~ 1.3e154; a NumPy warning
    # on the way would fail the test
    with pytest.raises(ValueError, match=r"out of range: \|alpha\|\^2 must be finite"):
        build(Truncation(5))


def test_truncation_for_coherent_rejects_bad_input():
    with pytest.raises(ValueError, match="finite"):
        truncation_for_coherent(float("nan"), 0)
    # each |alpha|^2 is finite, their sum is not
    message = "mean phonon number |alpha|^2 + |beta|^2 must be finite, got inf"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        truncation_for_coherent(1e154, 1e154)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_coherent(1e154, 1e154, Truncation(3))
    with pytest.raises(ValueError, match="mean phonon number 250000 is too large to truncate"):
        truncation_for_coherent(500, 0)


def test_truncation_for_coherent_sizes_a_mean_just_inside_its_limit(monkeypatch):
    # its Poisson pmf runs to lam + 40 sqrt(lam) + 100 = 199,688 <= 200,000 terms
    # at lam = 182,500, so only the truncation's own memory check refuses it
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 10**9)
    with pytest.raises(ValueError, match=r"^the state arrays of n_total_max = 1\.86e\+05 need"):
        truncation_for_coherent(math.sqrt(182500), 0)


def test_truncation_for_coherent_sums_a_pmf_of_at_most_200000_terms(monkeypatch):
    # int(lam + 40 sqrt(lam)) + 100 is 200,000 at lam = 182,799 and 200,001 just above
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 10**9)
    with pytest.raises(ValueError, match=r"^the state arrays of n_total_max = 1\.86e\+05 need"):
        truncation_for_coherent(math.sqrt(182799.0), 0)
    with pytest.raises(ValueError, match="^mean phonon number 182799 is too large to truncate$"):
        truncation_for_coherent(math.sqrt(182799.00011171936), 0)


BEYOND_FLOAT = 10**400  # float() of it raises OverflowError

# (entry point, a call passing x as one value, the name its refusal gives)
BEYOND_FLOAT_CALLS = [
    ("beam_splitter", lambda t, s, js, x: po.beam_splitter("b1", x, t), "theta"),
    ("phase_shifter", lambda t, s, js, x: po.phase_shifter("c", x, t), "phi"),
    ("joint_bs_propagator",
     lambda t, s, js, x: po.joint_bs_propagator("u2", x, js), "theta"),
    ("conditional_phase", lambda t, s, js, x: po.conditional_phase("c", x, js), "chi_t"),
    ("mz_output", lambda t, s, js, x: po.mz_output(s, x), "phi"),
    ("mz_report", lambda t, s, js, x: po.mz_report(s, x), "phases"),
    ("phase_sweep", lambda t, s, js, x: po.phase_sweep(s, [0.5, x]), "phases"),
    ("make_coherent", lambda t, s, js, x: make_coherent(0.5, x, t), "coherent amplitude"),
    ("make_cat", lambda t, s, js, x: make_cat(x, "even", "r", t), "coherent amplitude"),
    ("coherent_superposition-amplitude",
     lambda t, s, js, x: coherent_superposition([(1.0, x, 0.0)], t),
     "coherent amplitude"),
    ("coherent_superposition-weight",
     lambda t, s, js, x: coherent_superposition([(x, 0.5, 0.0)], t),
     "superposition weight"),
    ("truncation_for_coherent",
     lambda t, s, js, x: truncation_for_coherent(x, 0), "coherent amplitude"),
    ("entangled_cat",
     lambda t, s, js, x: po.entangled_cat(x, "even", 0.5, t), "coherent amplitude"),
    ("direct_mean_phonon", lambda t, s, js, x: po.direct_mean_phonon(s, x), "chi * t"),
    ("jz_from_methods-coupling",
     lambda t, s, js, x: po.jz_from_methods(s, coupling=x, m_max=3), "coupling"),
    ("jz_from_methods-chi_t",
     lambda t, s, js, x: po.jz_from_methods(s, m_max=3, chi_t=x), "chi * t"),
    ("default_times", lambda t, s, js, x: po.default_times(x), "coupling"),
    ("signal",
     lambda t, s, js, x: po.signal(s, x, np.linspace(0, 1, 8), "single"), "coupling"),
    ("SignalTrace",
     lambda t, s, js, x: po.SignalTrace(np.linspace(0, 1, 8), np.full(8, 0.5), x, "single"),
     "coupling"),
    ("jcm_unitary-coupling",
     lambda t, s, js, x: po.jcm_unitary(x, 1.0, t, "single"), "coupling"),
    ("jcm_unitary-t", lambda t, s, js, x: po.jcm_unitary(1.0, x, t, "single"), "t"),
    ("lab_to_angles",
     lambda t, s, js, x: po.lab_to_angles(po.LabParams(1.0, 0.1, 0.076, 1e6, 1e6, 1.0, x)),
     "t"),
]


@pytest.mark.parametrize("call, what", [c[1:] for c in BEYOND_FLOAT_CALLS],
                         ids=[c[0] for c in BEYOND_FLOAT_CALLS])
def test_an_integer_beyond_the_float_range_is_refused_by_name(call, what):
    # float() of the integer raises OverflowError, which used to leak; a bool
    # used to be read as 1.0 and a string as float(text) or a TypeError, and a
    # complex value leaked a TypeError where the slot is real
    t = Truncation(10)
    s = make_fock(1, 0, t)
    js = joint_state(s, ion1=QubitState.plus(), ion2=QubitState.ground())
    refusals = [(BEYOND_FLOAT, f"{what} must be finite, got an integer beyond the float range"),
                *((x, f"{what} must be a number, got {x!r}") for x in (True, np.True_, "0.5"))]
    if what not in ("coherent amplitude", "superposition weight"):
        refusals.append((1j, f"{what} must be a real number, got 1j"))
    for x, message in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(t, s, js, x)


def test_records_hold_the_floats_their_readers_return():
    # a bool coupling or chi_t used to be stored, and written as JSON true
    s = make_fock(1, 0, Truncation(4))
    trace = po.signal(s, 1, np.linspace(0.0, 1.0, 8), "single")
    assert type(trace.coupling) is float and json.loads(trace.to_json())["coupling"] == 1.0
    assert '"coupling": 1.0,' in trace.to_json()
    estimate = po.direct_mean_phonon(s, np.float64(0.25), np.str_("r"))
    assert type(estimate.chi_t) is float and type(estimate.mode) is str
    assert po.LabParams(1, 0.1, 0.076, 10**6, 10**6, 1, 1).Delta.hex() == (1e6).hex()


@pytest.mark.parametrize("tail_mass", [1, np.float64(0.5), fractions.Fraction(1, 4)])
def test_a_tail_mass_survives_its_own_round_trip(tail_mass):
    # True used to be stored and dumped as "tail_mass": true, which
    # state_from_json then refused
    t = Truncation(2)
    s = MotionalState(t, make_fock(1, 0, t).amps, tail_mass)
    assert type(s.tail_mass) is float and s.tail_mass == tail_mass
    back = state_from_json(state_to_json(s))
    assert back.tail_mass == s.tail_mass and back.flagged
    js = joint_state(s, ion2=QubitState.ground())
    assert JointState(t, (2,), js.amps, tail_mass).tail_mass == s.tail_mass


@pytest.mark.parametrize("tail_mass, message", [
    (True, "tail_mass must be a number, got True"),
    ("0.1", "tail_mass must be a number, got '0.1'"),
    (1j, "tail_mass must lie in [0, 1], got 1j"),
    (10**400, "tail_mass must be finite, got an integer beyond the float range"),
], ids=["True", "text", "complex", "10**400"])
def test_a_tail_mass_that_is_no_probability_is_refused_by_name(tail_mass, message):
    t = Truncation(2)
    s = make_fock(1, 0, t)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MotionalState(t, s.amps, tail_mass)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        JointState(t, (), s.amps, tail_mass)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
                                    complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_a_non_finite_superposition_weight_is_refused_by_name(weight):
    # the weight used to reach NumPy, which warned before the state was refused
    message = f"superposition weight must be finite, got {weight!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coherent_superposition([(weight, 0.1, 0.1)], Truncation(4))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coherent_superposition([(1.0, 0.1, 0.1), (weight, -0.1, 0.0)], Truncation(4))


@pytest.mark.parametrize("weights, unit", [
    ((1e200,), (1.0,)),
    ((1e154, 1e154), (1.0, 1.0)),
    ((-1e300j, 5e299), (-1j, 0.5)),
    ((1e308, 1e308), (1.0, 1.0)),
    ((1e-200, 5e-324), (1.0, 5e-124)),
], ids=["1e200", "1e154-pair", "complex-1e300", "1e308-pair", "1e-200"])
def test_a_common_factor_of_the_weights_is_divided_out(weights, unit):
    # neither the state nor tail_mass depends on it; a product of two large
    # weights used to overflow, warn and leave a state of norm^2 = 0.0, and
    # one of two small weights to underflow to a "zero norm"
    t = Truncation(4)
    places = [(0.1, 0.1), (-0.2, 0.3)]
    got = coherent_superposition([(w, *ab) for w, ab in zip(weights, places)], t)
    want = coherent_superposition([(w, *ab) for w, ab in zip(unit, places)], t)
    assert np.array_equal(got.amps, want.amps) and got.tail_mass == want.tail_mass
    if len(weights) == 1:
        assert np.array_equal(got.amps, make_coherent(0.1, 0.1, t).amps)


@pytest.mark.parametrize("build, mean", [
    (lambda t: make_coherent(2**63, 0, t), "8.50706e+37"),
    (lambda t: make_cat(1e10, "even", "c", t), "1e+20"),
    (lambda t: make_coherent(20, 20j, t), "800"),
    (lambda t: make_coherent(9.5e153, 0, t), "9.025e+307"),
], ids=["coherent-2**63", "cat-1e10", "coherent-20-20j", "coherent-9.5e153"])
def test_an_underflowed_state_names_its_mean_phonon_number(build, mean):
    # every kept Poisson weight underflows to 0 at these amplitudes.  At
    # 9.5e153 the norm^2 summed as exp(-(|alpha|^2 + |alpha|^2) / 2 + |alpha|^2)
    # was exp(-inf) = 0, and the state was refused as a zero norm
    message = (f"all amplitude mass lies outside the truncation: mean phonon number "
               f"|alpha|^2 + |beta|^2 = {mean}, n_total_max = 4")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(Truncation(4))


def test_a_product_truncated_far_below_its_mean_reads_a_tail_of_one():
    # P(N > 10) at mean 100 sums to 1.0000000000000386 in rounding, which
    # MotionalState used to refuse as no probability
    s = make_coherent(10, 0, Truncation(10))
    assert s.tail_mass == 1.0 and s.flagged


@pytest.mark.parametrize("build", [
    lambda: make_coherent(28, 0, Truncation(8)),
    lambda: make_cat(27, "even", "c", Truncation(0)),
], ids=["coherent-28", "cat-27"])
def test_kept_probabilities_below_the_normal_range_still_normalize(build):
    # the kept probabilities sum to a subnormal float, so dividing by its root
    # left norm^2 at 1.0258 and 0.99999998922, refused as not normalized
    s = build()
    assert abs(float(np.vdot(s.amps, s.amps).real) - 1.0) <= 1e-12
    assert s.flagged and 0.0 <= s.tail_mass <= 1.0


def test_reduced_purity_is_refused_before_its_square(monkeypatch):
    # the complex square, its conjugate and the Gram matrix: 48 (nmax + 1)^2 bytes
    t = Truncation(300)
    s = make_coherent(2.0, -1.0, t)
    square = 16 * 301**2
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 3 * square - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^the reduced density matrix of n_total_max = 300 "
                                             r"needs about 4.35e\+06 bytes, more than"):
            reduced_purity(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < square
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 3 * square)
    assert reduced_purity(s) == pytest.approx(1.0, abs=1e-12)


def test_integers_beyond_int64_are_refused_by_name(monkeypatch):
    # NumPy used to meet each of these as an int64 or uint64 and leak its own
    # IndexError or OverflowError
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 2**40)
    with pytest.raises(ValueError,
                       match="^for 9223372036854775808 weights, 38103430714254647296 samples need "
                             "about 1.12e\\+40 bytes"):
        po.default_times(0.7, n_weights=2**63)
    with pytest.raises(ValueError, match="all amplitude mass lies outside the truncation"):
        po.entangled_cat(2**63, "even", 0.7, Truncation(4))


def test_a_cutoff_beyond_str_conversion_is_refused_by_the_memory_check(monkeypatch):
    # 10**5000 has more digits than str() converts, and its byte count lies
    # beyond the float range; neither may leak from the message
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 2**40)
    with pytest.raises(ValueError, match=r"^the state arrays of n_total_max = 1e\+5000 need "
                                         r"about 2.4e\+10001 bytes, more than the memory limit "
                                         r"of 1.1e\+12 bytes$"):
        Truncation(10**5000)


HUGE = 10**5000  # more digits than str() converts


@pytest.mark.parametrize("call, message", [
    (lambda t, s, trace: Truncation(-HUGE), "n_total_max must be nonnegative, got -1e+5000"),
    (lambda t, s, trace: make_fock(HUGE, 0, t),
     "(m, n) = (1e+5000, 0) outside truncation: need m, n >= 0 and m + n <= 4"),
    (lambda t, s, trace: make_fock(0, -HUGE, t),
     "(m, n) = (0, -1e+5000) outside truncation: need m, n >= 0 and m + n <= 4"),
    (lambda t, s, trace: t.block(HUGE), "no block for total = 1e+5000"),
    (lambda t, s, trace: po.reconstruct_single(trace, HUGE),
     "64 samples cannot determine 1e+5000 weights; need at least 2e+5000"),
    (lambda t, s, trace: po.reconstruct_single(trace, -HUGE),
     "m_max must be nonnegative, got -1e+5000"),
    (lambda t, s, trace: po.default_times(1.0, n_weights=HUGE),
     "the number of weights must be finite, got an integer beyond the float range"),
    (lambda t, s, trace: po.signal(s, 1.0, trace.times, HUGE),
     "kind must be 'single' or 'two', got 1e+5000"),
], ids=["Truncation", "make_fock-m", "make_fock-n", "block", "reconstruct_single",
        "reconstruct_single-negative", "default_times", "signal-kind"])
def test_an_integer_beyond_str_conversion_is_written_by_its_size(monkeypatch, call, message):
    # each call used to end in Python's own "Exceeds the limit (4300 digits)
    # for integer string conversion", which names no argument; the hostile
    # sweep checks only that a message names its slot, and "m" or "n" is in
    # that one too
    monkeypatch.setattr(fockspace, "_memory_limit_bytes", lambda: 2**40)
    t = Truncation(4)
    s = make_fock(1, 0, t)
    trace = po.signal(s, 1.0, np.linspace(0.0, po.detection.DEFAULT_ANGLE_SPAN, 64), "single")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(t, s, trace)


def test_an_integer_that_str_converts_is_written_in_full():
    assert fockspace._int_text(-(10**4299)) == "-1" + "0" * 4299
    assert fockspace._int_text(10**4300) == "1e+4300"
    assert fockspace._int_text(-(10**4300)) == "-1e+4300"


def _two_registers():
    return joint_state(make_fock(1, 0, Truncation(2)), ion1=QubitState.plus(),
                       ion2=QubitState.ground())


@pytest.mark.parametrize("call, message", [
    (lambda: po.SignalTrace(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, "single"),
     "times and values must be 1-d arrays of equal length"),
    (lambda: po.SignalTrace(np.arange(3.0), np.zeros(2), 1.0, "single"),
     "times and values must be 1-d arrays of equal length"),
    (lambda: po.reconstruct_two(
        po.signal(make_fock(1, 0, Truncation(2)), 1.0,
                  np.linspace(0.0, po.detection.DEFAULT_ANGLE_SPAN, 8), "single"), 2),
     "reconstruct_two needs a two-mode trace"),
    (lambda: MotionalState(Truncation(4), np.ones(3) / 3**0.5),
     "state amplitudes have shape (3,), expected (15,)"),
    # each of these used to pass a bool or float through: block(2.5) was
    # slice(4.0, 7.0), contains(True, False) was True and ion True was ion 1
    (lambda: Truncation(4).block(2.5), "total must be an integer, got 2.5"),
    (lambda: Truncation(4).block(True), "total must be an integer, got True"),
    (lambda: Truncation(4).contains(2.5, 0), "m must be an integer, got 2.5"),
    (lambda: Truncation(4).contains(True, False), "m must be an integer, got True"),
    (lambda: _two_registers().axis_of(True), "ion must be an integer, got True"),
    (lambda: _two_registers().ground_probability(True), "ion must be an integer, got True"),
    (lambda: _two_registers().register(True), "ion must be an integer, got True"),
], ids=["trace-2d", "trace-unequal-lengths", "reconstruct_two-single-trace", "state-shape",
        "block-2.5", "block-True", "contains-2.5", "contains-True", "axis_of-True",
        "ground_probability-True", "register-True"])
def test_refusals_that_no_other_test_reaches(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, expected", [
    (lambda: Truncation(4).__eq__(4), NotImplemented),
    (lambda: Truncation(4) == 4, False),
    (lambda: fockspace._approx(10**400 - 1), "1e+400"),  # the mantissa rounds up to 10
    (lambda: fockspace._approx(9996 * 10**397), "1e+401"),  # 9.996 rounds to 10.0
], ids=["truncation-eq-other", "truncation-equals-int", "approx-carry", "approx-carry-rounded"])
def test_results_that_no_other_test_reaches(call, expected):
    result = call()
    assert type(result) is type(expected) and result == expected


# qubit and joint states ----------------------------------------------------


def test_qubit_state_constructors():
    g = QubitState.ground()
    assert g.amps[0] == 1.0
    assert QubitState.plus().sigma_x_eigenvalue() == 1
    assert QubitState.minus().sigma_x_eigenvalue() == -1
    assert QubitState.of(1 / math.sqrt(2), 1j / math.sqrt(2)).sigma_x_eigenvalue() is None
    with pytest.raises(ValueError, match="not normalized"):
        QubitState.of(1.0, 1.0)


def test_qubit_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError, match="non-finite"):
        QubitState.of(math.nan, math.nan)


def test_joint_state_shapes_and_norm():
    s = make_fock(1, 0, Truncation(3))
    js = joint_state(s, ion1=QubitState.plus(), ion2=QubitState.ground())
    assert js.ions == (1, 2)
    assert js.amps.shape == (2, 2, s.trunc.dim)
    js2 = joint_state(s, ion2=QubitState.excited())
    assert js2.ions == (2,)
    assert js2.ground_probability(2) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="no qubit register"):
        js2.axis_of(1)
    with pytest.raises(ValueError, match=r"ions must be a sorted subset of \(1, 2\), got \(2, 1\)"):
        JointState(s.trunc, (2, 1), js.amps)
    assert JointState(s.trunc, (1, 2), js.amps).tail_mass == 0.0  # by default nothing was discarded


@pytest.mark.parametrize("label", [True, 1.0, np.True_], ids=["True", "1.0", "np.True_"])
def test_an_ion_label_is_read_as_an_integer(label):
    # a bool label used to be accepted and stored, since True == 1
    t = Truncation(1)
    amps = np.full((2, t.dim), 1 / math.sqrt(2 * t.dim))
    message = f"ion label must be an integer, got {label!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        JointState(t, (label,), amps)
    js = JointState(t, (np.int64(2),), amps)
    assert js.ions == (2,) and type(js.ions[0]) is int


def test_a_register_is_read_and_written_where_the_layout_puts_it():
    t = Truncation(3)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=(2, 2, t.dim)) + 1j * rng.normal(size=(2, 2, t.dim))
    js = JointState(t, (1, 2), amps / np.linalg.norm(amps))
    # the other register's axis first, the motional axis last
    for ion, parts in ((1, (js.amps[0], js.amps[1])), (2, (js.amps[:, 0], js.amps[:, 1]))):
        g, e = js.register(ion)
        assert np.array_equal(g, parts[0]) and np.array_equal(e, parts[1])
        assert g.shape == e.shape == (2, t.dim)
        assert not (g.flags.writeable or e.flags.writeable)
        assert np.array_equal(js.with_register(ion, g, e).amps, js.amps)
    flipped = js.with_register(2, *js.register(2)[::-1])
    assert np.array_equal(flipped.amps, js.amps[:, ::-1])
    single = joint_state(make_fock(1, 0, t), ion2=QubitState.excited())
    g, e = single.register(2)
    assert g.shape == (t.dim,) and np.array_equal(e, make_fock(1, 0, t).amps)
    with pytest.raises(ValueError, match="^ion 1 carries no qubit register in this state$"):
        single.register(1)
    with pytest.raises(ValueError, match="^ion 1 carries no qubit register in this state$"):
        single.with_register(1, g, e)


def test_joint_state_rejects_non_finite_amplitudes():
    t = Truncation(1)
    with pytest.raises(ValueError, match="non-finite"):
        JointState(t, (2,), np.full((2, t.dim), np.nan))


def test_joint_state_reduced_quantities():
    s = make_fock(0, 0, Truncation(2))
    js = joint_state(s, ion2=QubitState.plus())
    rho = js.reduced_qubit(2)
    assert np.allclose(rho, 0.5 * np.ones((2, 2)))
    assert js.expect_sigma_x(2) == pytest.approx(1.0)
    assert js.qubit_fidelity(2, QubitState.plus()) == pytest.approx(1.0)
    assert js.motional_fidelity(s) == pytest.approx(1.0)


def test_joint_state_motional_fidelity_mixes_branches():
    # (|g> (x) |1,0> + |e> (x) |0,1>)/sqrt(2): fidelity with |1,0> is 1/2
    t = Truncation(2)
    amps = np.zeros((2, t.dim), complex)
    amps[0, t.index(1, 0)] = 1 / math.sqrt(2)
    amps[1, t.index(0, 1)] = 1 / math.sqrt(2)
    js = JointState(t, (2,), amps)
    assert js.motional_fidelity(make_fock(1, 0, t)) == pytest.approx(0.5)


def _exact_mean_jz(s: MotionalState) -> fractions.Fraction:
    """sum_mn (m - n)/2 p_mn, exactly, over the float64 p_mn = |c_mn|^2 the
    package sums: each p is a / b with b a power of two."""
    ms, ns = s.trunc.mode_numbers()
    ratios = [x.as_integer_ratio() for x in number_distributions(s).p.tolist()]
    scale = max(b for _, b in ratios)
    total = sum((m - n) * a * (scale // b)
                for m, n, (a, b) in zip(ms.tolist(), ns.tolist(), ratios))
    return fractions.Fraction(total, 2 * scale)


@pytest.mark.parametrize("seed", range(40))
def test_expect_jz_is_mean_jz_within_8_ulp_of_the_exact_sum(seed):
    # random states at nmax 10-300, a third even and the rest tilted toward
    # one mode; summing k p_m[k] and k p_n[k] apart, two totals of order <N>
    # cancel, and that form was off by up to about 90 ulp on these states
    s = seeded_state(seed)
    mean_jz = number_distributions(s).mean_jz
    assert expect(s, "jz") == mean_jz  # bit for bit: one formula
    exact = _exact_mean_jz(s)
    error = abs(fractions.Fraction(mean_jz) - exact)
    assert error <= 8 * fractions.Fraction(math.ulp(max(abs(float(exact)), 1.0)))


def test_marginal_is_the_named_mode():
    d = number_distributions(make_coherent(0.5, 1.5j, Truncation(12)))
    assert d.marginal("c") is d.p_m and d.marginal("r") is d.p_n


@pytest.mark.parametrize("mode", ["C", " c", "m", "", "cr", None, True, 0, 1.0, b"c", 2**63])
def test_marginal_refuses_a_bad_mode_by_name(mode):
    d = number_distributions(make_fock(1, 0, Truncation(2)))
    with pytest.raises(ValueError, match=r"^mode must be 'c' or 'r', got "):
        d.marginal(mode)
