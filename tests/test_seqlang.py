import ast
import math
from pathlib import Path

import numpy as np
import pytest

import phonon_optics
from phonon_optics import (
    ExecutionError,
    ParseError,
    Truncation,
    apply,
    beam_splitter,
    direct_mean_phonon,
    execute,
    expect,
    fidelity,
    format_program,
    make_cat,
    make_coherent,
    mz_output,
    number_distributions,
    parse,
    parse_state_spec,
    phase_shifter,
)
from phonon_optics import operators, seqlang
from phonon_optics.seqlang import (
    Angle,
    DirectRecord,
    ReportRecord,
    Statement,
    TraceRecord,
    parse_angle,
)
from seq_generator import random_program

MZ_DEMO = "init coherent 0 0 2 0 nmax 40\nmz pi/3\nreport\n"


# parsing ---------------------------------------------------------------------


def test_parse_three_statement_program():
    p = parse("init fock 1 0 nmax 4\nbs1 pi/2\nreport")
    assert [s.verb for s in p.statements] == ["init", "bs1", "report"]
    assert p.statements[0].args[-1] == 4
    assert p.statements[1].args[0].value == pytest.approx(math.pi / 2)


def test_statement_args_hold_one_value_per_grammar_slot():
    p = parse("INIT Fock 1 0 NMAX 4\njcm two 0.5 0 12 64\ncphase r pi/2\nreport")
    assert p.statements == (
        Statement("init", ("fock", 1, 0, "nmax", 4)),
        Statement("jcm", ("two", 0.5, 0.0, 12.0, 64)),
        Statement("cphase", ("r", Angle.from_pi(1, 2))),
        Statement("report", ()),
    )


def test_parse_empty_program():
    # refused at 1:1, where the missing 'init' belongs
    with pytest.raises(ParseError, match="^1:1: empty program: missing 'init'$"):
        parse("")
    with pytest.raises(ParseError, match="^1:1: empty program: missing 'init'$") as exc_info:
        parse("# only a comment\n\n")
    assert (exc_info.value.line, exc_info.value.col) == (1, 1)


def test_parse_mz_demo():
    p = parse(MZ_DEMO)
    assert [s.verb for s in p.statements] == ["init", "mz", "report"]


def test_parse_comments_and_blank_lines():
    p = parse("# header\ninit fock 0 0 nmax 2\n\nbs2 0.5 # trailing comment\n")
    assert len(p.statements) == 2
    assert p.statements[1].args[0].value == 0.5


def test_init_must_come_first():
    err = pytest.raises(ParseError, match="must start with 'init'")
    with err as exc_info:
        parse("bs1 pi/2\ninit fock 0 0 nmax 2")
    assert exc_info.value.line == 1
    assert exc_info.value.col == 1


def test_single_init_only():
    with pytest.raises(ParseError, match="first statement") as exc_info:
        parse("init fock 0 0 nmax 2\ninit fock 1 0 nmax 2")
    assert exc_info.value.line == 2


def test_unknown_verb_is_located():
    with pytest.raises(ParseError, match="unknown verb") as exc_info:
        parse("init fock 0 0 nmax 2\n  warp 3")
    assert exc_info.value.line == 2
    assert exc_info.value.col == 3


def test_arity_errors():
    with pytest.raises(ParseError, match="missing"):
        parse("init fock 1 0 nmax")
    with pytest.raises(ParseError, match="missing an angle"):
        parse("init fock 1 0 nmax 4\nbs1")
    # a shifted argument is reported at the offending token instead
    with pytest.raises(ParseError, match="expected an integer N"):
        parse("init fock 1 nmax 4")
    with pytest.raises(ParseError, match="trailing argument") as exc_info:
        parse("init fock 1 0 nmax 4\nbs1 pi/2 19")
    assert exc_info.value.line == 2
    assert exc_info.value.col == 10


def test_type_errors_are_located():
    with pytest.raises(ParseError, match="expected an integer") as exc_info:
        parse("init fock one 0 nmax 4")
    assert exc_info.value.col == 11
    with pytest.raises(ParseError, match="expected an angle"):
        parse("init fock 0 0 nmax 4\nbs1 fast")
    with pytest.raises(ParseError, match="one of single/two"):
        parse("init fock 0 0 nmax 4\njcm both 1 0 1 8")


LONG_INT = "9" * 5000  # more digits than int() converts from text by default


@pytest.mark.parametrize(
    "text, where",
    [
        (f"init fock 0 0 nmax {LONG_INT}", (1, 20, "nmax")),
        (f"init fock {LONG_INT} 0 nmax 4", (1, 11, "M")),
        (f"init fock 0 0 nmax 4\njcm single 1 0 1 -{LONG_INT}", (2, 18, "nsamples")),
    ],
    ids=["nmax", "fock index", "negative nsamples"],
)
def test_integer_too_long_to_convert_is_located(text, where):
    line, col, key = where
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    err = exc_info.value
    assert (err.line, err.col) == (line, col)
    assert err.message == f"{key} has 5000 digits, too many to read as an integer"


def test_fock_index_beyond_nmax():
    with pytest.raises(ParseError, match="exceeds the truncation") as exc_info:
        parse("init fock 2 3 nmax 4")
    assert exc_info.value.line == 1
    assert exc_info.value.col == 11


def test_init_value_checks():
    assert parse("init fock 0 0 nmax 0").statements[0].args[-1] == 0  # the smallest cutoff
    with pytest.raises(ParseError, match="^1:20: nmax must be >= 0, got -1$"):
        parse("init fock 0 0 nmax -1")
    with pytest.raises(ParseError, match="^1:11: M must be >= 0, got -1$"):
        parse("init fock -1 0 nmax 3")
    with pytest.raises(ParseError, match="^1:13: N must be >= 0, got -1$"):
        parse("init fock 0 -1 nmax 4")
    with pytest.raises(ParseError, match="nsamples must be >= 2"):
        parse("init fock 0 0 nmax 2\njcm single 1.0 0 1 1")
    with pytest.raises(ParseError, match="t1 must exceed t0"):
        parse("init fock 0 0 nmax 2\njcm single 1.0 2 1 8")
    with pytest.raises(ParseError, match="^2:16: time range t1 - t0 must be finite"):
        parse("init fock 0 0 nmax 2\njcm single 1.0 -1e308 1e308 8")


def test_t1_not_above_t0_is_refused_at_t1():
    with pytest.raises(ParseError, match="^2:16: t1 must exceed t0, got 5.0 .. 5.0$"):
        parse("init fock 0 0 nmax 2\njcm single 1 5 5 16")


@pytest.mark.parametrize("coupling", ["0", "-1.5", "-0.0"])
def test_jcm_coupling_must_be_positive(coupling):
    with pytest.raises(ParseError, match="coupling must be positive") as exc_info:
        parse(f"init fock 0 0 nmax 2\njcm single {coupling} 0 10 16")
    assert exc_info.value.line == 2
    assert exc_info.value.col == 12


# Each slot of each verb and init kind: cut the statement before it, drop it,
# or put a token of another kind in its place.  The init kinds stand alone on
# line 1; every other verb follows a fixed init on line 2.
_CANONICAL = {
    "fock": "init fock 1 0 nmax 4",
    "coherent": "init coherent 0.5 -0.25 2 0 nmax 20",
    "cat": "init cat 1.5 0 odd c nmax 30",
    "bs1": "bs1 pi/2",
    "bs2": "bs2 0.25",
    "ps": "ps r -pi/4",
    "cphase": "cphase c 2*pi",
    "mz": "mz pi/3",
    "jcm": "jcm two 0.5 0.0 12.0 64",
    "direct": "direct r 0.001",
}


@pytest.mark.parametrize(
    "name, slot, edit, expected",
    [
    ('fock', 1, 'cut', (1, 5, "'init' is missing one of fock/coherent/cat")),
    ('fock', 1, 'drop', (1, 6, "expected one of fock/coherent/cat, got '1'")),
    ('fock', 1, '1.5', (1, 6, "expected one of fock/coherent/cat, got '1.5'")),
    ('fock', 2, 'cut', (1, 10, "'init' is missing M")),
    ('fock', 2, 'drop', (1, 13, "expected an integer N, got 'nmax'")),
    ('fock', 2, '1.5', (1, 11, "expected an integer M, got '1.5'")),
    ('fock', 3, 'cut', (1, 12, "'init' is missing N")),
    ('fock', 3, 'drop', (1, 13, "expected an integer N, got 'nmax'")),
    ('fock', 3, '1.5', (1, 13, "expected an integer N, got '1.5'")),
    ('fock', 4, 'cut', (1, 14, "'init' is missing the keyword 'nmax'")),
    ('fock', 4, 'drop', (1, 15, "expected keyword 'nmax', got '4'")),
    ('fock', 4, '1.5', (1, 15, "expected keyword 'nmax', got '1.5'")),
    ('fock', 5, 'cut', (1, 19, "'init' is missing nmax")),
    ('fock', 5, 'drop', (1, 19, "'init' is missing nmax")),
    ('fock', 5, '1.5', (1, 20, "expected an integer nmax, got '1.5'")),
    ('coherent', 1, 'cut', (1, 5, "'init' is missing one of fock/coherent/cat")),
    ('coherent', 1, 'drop', (1, 6, "expected one of fock/coherent/cat, got '0.5'")),
    ('coherent', 1, '1.5', (1, 6, "expected one of fock/coherent/cat, got '1.5'")),
    ('coherent', 2, 'cut', (1, 14, "'init' is missing alpha real part")),
    ('coherent', 2, 'drop', (1, 25, "expected a number for beta imaginary part, got 'nmax'")),
    ('coherent', 2, 'pi', (1, 15, "expected a number for alpha real part, got 'pi'")),
    ('coherent', 3, 'cut', (1, 18, "'init' is missing alpha imaginary part")),
    ('coherent', 3, 'drop', (1, 23, "expected a number for beta imaginary part, got 'nmax'")),
    ('coherent', 3, 'pi', (1, 19, "expected a number for alpha imaginary part, got 'pi'")),
    ('coherent', 4, 'cut', (1, 24, "'init' is missing beta real part")),
    ('coherent', 4, 'drop', (1, 27, "expected a number for beta imaginary part, got 'nmax'")),
    ('coherent', 4, 'pi', (1, 25, "expected a number for beta real part, got 'pi'")),
    ('coherent', 5, 'cut', (1, 26, "'init' is missing beta imaginary part")),
    ('coherent', 5, 'drop', (1, 27, "expected a number for beta imaginary part, got 'nmax'")),
    ('coherent', 5, 'pi', (1, 27, "expected a number for beta imaginary part, got 'pi'")),
    ('coherent', 6, 'cut', (1, 28, "'init' is missing the keyword 'nmax'")),
    ('coherent', 6, 'drop', (1, 29, "expected keyword 'nmax', got '20'")),
    ('coherent', 6, '1.5', (1, 29, "expected keyword 'nmax', got '1.5'")),
    ('coherent', 7, 'cut', (1, 33, "'init' is missing nmax")),
    ('coherent', 7, 'drop', (1, 33, "'init' is missing nmax")),
    ('coherent', 7, '1.5', (1, 34, "expected an integer nmax, got '1.5'")),
    ('cat', 1, 'cut', (1, 5, "'init' is missing one of fock/coherent/cat")),
    ('cat', 1, 'drop', (1, 6, "expected one of fock/coherent/cat, got '1.5'")),
    ('cat', 1, '1.5', (1, 6, "expected one of fock/coherent/cat, got '1.5'")),
    ('cat', 2, 'cut', (1, 9, "'init' is missing alpha real part")),
    ('cat', 2, 'drop', (1, 12, "expected a number for alpha imaginary part, got 'odd'")),
    ('cat', 2, 'pi', (1, 10, "expected a number for alpha real part, got 'pi'")),
    ('cat', 3, 'cut', (1, 13, "'init' is missing alpha imaginary part")),
    ('cat', 3, 'drop', (1, 14, "expected a number for alpha imaginary part, got 'odd'")),
    ('cat', 3, 'pi', (1, 14, "expected a number for alpha imaginary part, got 'pi'")),
    ('cat', 4, 'cut', (1, 15, "'init' is missing one of even/odd")),
    ('cat', 4, 'drop', (1, 16, "expected one of even/odd, got 'c'")),
    ('cat', 4, '1.5', (1, 16, "expected one of even/odd, got '1.5'")),
    ('cat', 5, 'cut', (1, 19, "'init' is missing one of c/r")),
    ('cat', 5, 'drop', (1, 20, "expected one of c/r, got 'nmax'")),
    ('cat', 5, '1.5', (1, 20, "expected one of c/r, got '1.5'")),
    ('cat', 6, 'cut', (1, 21, "'init' is missing the keyword 'nmax'")),
    ('cat', 6, 'drop', (1, 22, "expected keyword 'nmax', got '30'")),
    ('cat', 6, '1.5', (1, 22, "expected keyword 'nmax', got '1.5'")),
    ('cat', 7, 'cut', (1, 26, "'init' is missing nmax")),
    ('cat', 7, 'drop', (1, 26, "'init' is missing nmax")),
    ('cat', 7, '1.5', (1, 27, "expected an integer nmax, got '1.5'")),
    ('bs1', 1, 'cut', (2, 4, "'bs1' is missing an angle")),
    ('bs1', 1, 'drop', (2, 4, "'bs1' is missing an angle")),
    ('bs1', 1, 'c', (2, 5, "expected an angle (decimal radians or a pi fraction), got 'c'")),
    ('bs2', 1, 'cut', (2, 4, "'bs2' is missing an angle")),
    ('bs2', 1, 'drop', (2, 4, "'bs2' is missing an angle")),
    ('bs2', 1, 'c', (2, 5, "expected an angle (decimal radians or a pi fraction), got 'c'")),
    ('ps', 1, 'cut', (2, 3, "'ps' is missing one of c/r")),
    ('ps', 1, 'drop', (2, 4, "expected one of c/r, got '-pi/4'")),
    ('ps', 1, '1.5', (2, 4, "expected one of c/r, got '1.5'")),
    ('ps', 2, 'cut', (2, 5, "'ps' is missing an angle")),
    ('ps', 2, 'drop', (2, 5, "'ps' is missing an angle")),
    ('ps', 2, 'c', (2, 6, "expected an angle (decimal radians or a pi fraction), got 'c'")),
    ('cphase', 1, 'cut', (2, 7, "'cphase' is missing one of c/r")),
    ('cphase', 1, 'drop', (2, 8, "expected one of c/r, got '2*pi'")),
    ('cphase', 1, '1.5', (2, 8, "expected one of c/r, got '1.5'")),
    ('cphase', 2, 'cut', (2, 9, "'cphase' is missing an angle")),
    ('cphase', 2, 'drop', (2, 9, "'cphase' is missing an angle")),
    ('cphase', 2, 'c', (2, 10, "expected an angle (decimal radians or a pi fraction), got 'c'")),
    ('mz', 1, 'cut', (2, 3, "'mz' is missing an angle")),
    ('mz', 1, 'drop', (2, 3, "'mz' is missing an angle")),
    ('mz', 1, 'c', (2, 4, "expected an angle (decimal radians or a pi fraction), got 'c'")),
    ('jcm', 1, 'cut', (2, 4, "'jcm' is missing one of single/two")),
    ('jcm', 1, 'drop', (2, 5, "expected one of single/two, got '0.5'")),
    ('jcm', 1, '1.5', (2, 5, "expected one of single/two, got '1.5'")),
    ('jcm', 2, 'cut', (2, 8, "'jcm' is missing coupling")),
    ('jcm', 2, 'drop', (2, 20, "'jcm' is missing nsamples")),
    ('jcm', 2, 'pi', (2, 9, "expected a number for coupling, got 'pi'")),
    ('jcm', 3, 'cut', (2, 12, "'jcm' is missing t0")),
    ('jcm', 3, 'drop', (2, 20, "'jcm' is missing nsamples")),
    ('jcm', 3, 'pi', (2, 13, "expected a number for t0, got 'pi'")),
    ('jcm', 4, 'cut', (2, 16, "'jcm' is missing t1")),
    ('jcm', 4, 'drop', (2, 19, "'jcm' is missing nsamples")),
    ('jcm', 4, 'pi', (2, 17, "expected a number for t1, got 'pi'")),
    ('jcm', 5, 'cut', (2, 21, "'jcm' is missing nsamples")),
    ('jcm', 5, 'drop', (2, 21, "'jcm' is missing nsamples")),
    ('jcm', 5, '1.5', (2, 22, "expected an integer nsamples, got '1.5'")),
    ('direct', 1, 'cut', (2, 7, "'direct' is missing one of c/r")),
    ('direct', 1, 'drop', (2, 8, "expected one of c/r, got '0.001'")),
    ('direct', 1, '1.5', (2, 8, "expected one of c/r, got '1.5'")),
    ('direct', 2, 'cut', (2, 9, "'direct' is missing chi_t")),
    ('direct', 2, 'drop', (2, 9, "'direct' is missing chi_t")),
    ('direct', 2, 'pi', (2, 10, "expected a number for chi_t, got 'pi'")),
    ],
)
def test_every_grammar_slot_is_located(name, slot, edit, expected):
    tokens = _CANONICAL[name].split()
    if edit == "cut":
        del tokens[slot:]
    elif edit == "drop":
        del tokens[slot]
    else:
        tokens[slot] = edit
    text = " ".join(tokens)
    if tokens[0] != "init":
        text = "init fock 0 0 nmax 2\n" + text
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    err = exc_info.value
    assert (err.line, err.col, err.message) == expected


def test_angle_literal_forms():
    p = parse(
        "init fock 0 0 nmax 2\n"
        "bs1 pi\nbs1 pi/2\nbs1 3*pi/4\nbs1 -pi/3\nbs1 -2*pi\nbs1 0.125\nbs1 -1e-3"
    )
    values = [s.args[0].value for s in p.statements[1:]]
    assert values == pytest.approx(
        [math.pi, math.pi / 2, 3 * math.pi / 4, -math.pi / 3, -2 * math.pi, 0.125, -1e-3]
    )


@pytest.mark.parametrize(
    "text,message",
    [
        ("pi/0", "denominator must be positive"),
        ("inf", "must be finite"),
        ("-inf", "must be finite"),
        ("nan", "must be finite"),
        ("1e400", "must be finite"),
        ("9" * 400 + "*pi", "out of range"),
        ("pi/" + "9" * 400, "out of range"),
        ("half", "expected an angle"),
    ],
)
def test_angle_rejections(text, message):
    with pytest.raises(ValueError, match=message):
        parse_angle(text)
    with pytest.raises(ParseError, match=message) as exc_info:
        parse(f"init fock 0 0 nmax 2\nbs1 {text}")
    assert (exc_info.value.line, exc_info.value.col) == (2, 5)


@pytest.mark.parametrize("den", [0, -2])
def test_angle_from_pi_refuses_a_denominator_below_one(den):
    with pytest.raises(ValueError, match="denominator must be positive"):
        Angle.from_pi(1, den)


def test_angle_text_round_trip():
    for angle in (
        Angle.from_pi(1, 1),
        Angle.from_pi(1, 2),
        Angle.from_pi(-1, 3),
        Angle.from_pi(3, 4),
        Angle.from_pi(-5, 2),
        Angle(0.7),
        Angle(-2.5e-4),
    ):
        text = str(angle)
        p = parse(f"init fock 0 0 nmax 2\nbs1 {text}")
        assert p.statements[1].args[0] == angle


# formatting ------------------------------------------------------------------


def test_format_canonicalizes_case_and_spacing():
    p = parse("init fock 0 0 nmax 2\n  BS1   PI/2")
    assert format_program(p).splitlines()[1] == "bs1 pi/2"


def test_format_writes_zero_pi_without_a_sign():
    p = parse("init fock 0 0 nmax 2\nbs1 0*pi\nbs2 -0*pi")
    assert format_program(p).splitlines()[1:] == ["bs1 0*pi", "bs2 0*pi"]


def test_format_round_trip_examples():
    for text in (
        "init fock 1 0 nmax 4\nbs1 pi/2\nreport",
        MZ_DEMO,
        "init cat 1.5 0 odd c nmax 30\nbs2 pi/2\nps r -pi/4\ncphase c 2*pi\n"
        "jcm two 0.5 0.0 12.0 64\ndirect r 0.001\nreport",
    ):
        p = parse(text)
        assert parse(format_program(p)).statements == p.statements


def test_format_round_trip_random_programs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        program = random_program(rng)
        assert parse(format_program(program)).statements == program.statements


# execution -------------------------------------------------------------------


def test_execute_beam_split_fock():
    result = execute(parse("init fock 1 0 nmax 4\nbs1 pi/2\nreport"))
    record = result.records[0]
    assert isinstance(record, ReportRecord)
    assert record.distribution.mean_jz == pytest.approx(0.0, abs=1e-14)
    assert record.distribution.p_m[0] == pytest.approx(0.5, abs=1e-12)
    assert record.distribution.p_m[1] == pytest.approx(0.5, abs=1e-12)


def test_execute_mz_at_zero_phase():
    result = execute(parse("init coherent 0 0 2 0 nmax 40\nmz 0\nreport"))
    assert result.records[0].distribution.mean_jz == pytest.approx(2.0, abs=1e-9)


def test_execute_init_only_report():
    result = execute(parse("init fock 2 1 nmax 5\nreport"))
    d = result.records[0].distribution
    assert d.p[d.trunc.index(2, 1)] == pytest.approx(1.0)
    assert d.mean_jz == pytest.approx(0.5)


def test_a_report_reads_jz_from_its_distribution(monkeypatch):
    # Jz is the distribution's mean_jz; expect runs for jx and jy alone
    calls = []

    def counted(state, obs):
        calls.append(obs)
        return expect(state, obs)

    monkeypatch.setattr(seqlang, "expect", counted)
    execute(parse("init coherent 0.3 0.1 0.7 0 nmax 15\nreport\nbs2 pi/3\nreport"))
    assert calls == ["jx", "jy", "jx", "jy"]


def test_execute_cphase_is_half_angle_phase_shift():
    chi_t = 0.9
    via_cphase = execute(parse(f"init coherent 1 0 0.5 0 nmax 20\ncphase c {chi_t}"))
    via_ps = execute(parse(f"init coherent 1 0 0.5 0 nmax 20\nps c {chi_t / 2}"))
    assert fidelity(via_cphase.final_state, via_ps.final_state) == pytest.approx(1.0, abs=1e-12)


def test_execute_collects_probe_records():
    text = (
        "init fock 1 1 nmax 6\n"
        "jcm two 1.0 0.0 12.56 32\n"
        "direct c 0.001\n"
        "report"
    )
    result = execute(parse(text))
    kinds = [type(r) for r in result.records]
    assert kinds == [TraceRecord, DirectRecord, ReportRecord]
    trace = result.records[0].trace
    assert trace.kind == "two"
    assert trace.times.size == 32
    assert result.records[1].estimate.mean_n_linearized == pytest.approx(1.0, rel=1e-4)


def test_execute_runtime_error_carries_line():
    with pytest.raises(ExecutionError, match="line 1") as exc_info:
        execute(parse("init cat 0 0 odd c nmax 4"))
    assert exc_info.value.line == 1


def test_execute_is_deterministic():
    program = parse("init coherent 0.3 0.1 0.7 0 nmax 15\nbs2 pi/3\nmz 0.4\nreport")
    a = execute(program).records[0]
    b = execute(program).records[0]
    assert a.jx == b.jx and a.jy == b.jy and a.distribution.mean_jz == b.distribution.mean_jz
    assert np.array_equal(a.distribution.p, b.distribution.p)


def test_execute_matches_library_state():
    result = execute(parse("init coherent 0 0 1.5 0 nmax 25"))
    want = make_coherent(0, 1.5, Truncation(25))
    assert fidelity(result.final_state, want) == pytest.approx(1.0, abs=1e-12)
    cat = execute(parse("init cat 1 0 even r nmax 25")).final_state
    assert fidelity(cat, make_cat(1, "even", "r", Truncation(25))) == pytest.approx(
        1.0, abs=1e-12
    )


# folding of passive runs ------------------------------------------------------

FOLDED = (
    "init coherent 0.4 -0.3 0.9 0.2 nmax 12\n"
    "ps c 0.3\nbs1 0.7\nreport\nbs2 1.1\nmz pi/3\ndirect c 0.001\nbs1 -0.4\n"
)


def test_folded_runs_match_statement_by_statement():
    result = execute(parse(FOLDED))
    trunc = Truncation(12)
    s = make_coherent(complex(0.4, -0.3), complex(0.9, 0.2), trunc)
    s = apply(phase_shifter("c", 0.3, trunc), s)
    s = apply(beam_splitter("b1", 0.7, trunc), s)
    report, direct = result.records
    assert np.max(np.abs(report.distribution.p - number_distributions(s).p)) <= 1e-13
    for name in ("jx", "jy"):
        assert abs(getattr(report, name) - expect(s, name)) <= 1e-13
    assert abs(report.distribution.mean_jz - expect(s, "jz")) <= 1e-13
    s = apply(beam_splitter("b2", 1.1, trunc), s)
    s = mz_output(s, math.pi / 3)
    want = direct_mean_phonon(s, 0.001, "c")
    assert abs(direct.estimate.sigma_x_exact - want.sigma_x_exact) <= 1e-13
    assert abs(direct.estimate.mean_n_linearized - want.mean_n_linearized) <= 1e-13
    s = apply(beam_splitter("b1", -0.4, trunc), s)
    assert np.max(np.abs(result.final_state.amps - s.amps)) <= 1e-13


@pytest.mark.parametrize(
    "text, line",
    [
        ("init fock 1 0 nmax 6\nreport\n# folded\nps c 0.2\nbs1 pi/2\nbs2 0.3\nreport\n", 4),
        ("init fock 1 0 nmax 6\nreport\ncphase r 0.2\nmz pi/3\n", 3),
    ],
)
def test_failing_folded_run_names_its_first_line(monkeypatch, text, line):
    def failing_blocks(beta, n_total_max):
        raise np.linalg.LinAlgError("d block N = 1: rotation residual 1")
        yield

    monkeypatch.setattr(operators, "_small_d", failing_blocks)
    with pytest.raises(ExecutionError, match="rotation residual") as exc_info:
        execute(parse(text))
    assert exc_info.value.line == line


@pytest.mark.parametrize(
    "text, rotations",
    [
        (FOLDED, 3),  # [ps, bs1], [bs2, mz] and [bs1]
        ("init fock 2 1 nmax 5\nps c 0.3\ncphase r 0.2\nreport\nps r 1\n", 0),
        ("init fock 2 1 nmax 5\nmz 0.1\nmz 0.2\nbs1 1\nbs2 2\nps c 3\n", 1),
    ],
)
def test_each_passive_run_rotates_at_most_once(monkeypatch, text, rotations):
    calls = []
    small_d = operators._small_d
    monkeypatch.setattr(operators, "_small_d", lambda *args: calls.append(args) or small_d(*args))
    execute(parse(text))
    assert len(calls) == rotations


# state specs -----------------------------------------------------------------


def test_parse_state_spec():
    s = parse_state_spec("coherent 0 0 2 0 nmax 40")
    assert s.trunc.n_total_max == 40


def test_parse_state_spec_locates_an_integer_too_long_to_convert():
    with pytest.raises(ParseError, match="nmax has 5000 digits") as exc_info:
        parse_state_spec(f"fock 0 0 nmax {LONG_INT}")
    assert exc_info.value.col == 15  # located in the spec as given


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("fock x 0 nmax 4", (1, 6, "expected an integer M, got 'x'")),
        ("  fock 0 0 nmax", (1, 16, "'init' is missing nmax")),
        ("", (1, 1, "'init' is missing one of fock/coherent/cat")),
        ("fock 0 0 nmax 4\n report", (2, 2, "state spec must be a single init clause")),
    ],
    ids=["bad slot", "leading spaces", "empty", "second line"],
)
def test_state_spec_errors_are_located_in_the_spec_as_given(spec, expected):
    with pytest.raises(ParseError) as exc_info:
        parse_state_spec(spec)
    err = exc_info.value
    assert (err.line, err.col, err.message) == expected


def test_parse_state_spec_rejects_garbage():
    with pytest.raises(ParseError):
        parse_state_spec("fock 1 nmax 4")
    with pytest.raises(ParseError):
        parse_state_spec("coherent 0 0 2 0 nmax 40\nreport")


def test_only_the_text_readers_fold_case_or_strip():
    # the library reads a label as given; only the two readers of text, the
    # parser and the command line, fold its case or strip its spaces
    paths = sorted(Path(phonon_optics.__file__).parent.glob("*.py"))
    assert len(paths) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.stem not in ("seqlang", "cli")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("lower", "strip")
    ]
    assert found == []


def _positional_reads(func: ast.FunctionDef) -> list[str]:
    """Every subscript of ``func`` by an integer literal or a slice with one,
    and every tuple unpacking of ``args``."""
    def literal(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Constant) and isinstance(node.value, int)

    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript):
            index = node.slice
            bounds = (index.lower, index.upper, index.step) if isinstance(index, ast.Slice) else ()
            if literal(index) or any(b is not None and literal(b) for b in bounds):
                found.append(ast.unparse(node))
        elif (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
              and isinstance(node.value, ast.Name) and node.value.id == "args"):
            found.append(ast.unparse(node))
    return found


def test_the_parser_finds_each_slot_by_its_key():
    # a slot's place is written once, by its order in _GRAMMAR: _parse_statement
    # reads its words, arguments and columns by no literal position
    tree = ast.parse(Path(seqlang.__file__).read_text(encoding="utf-8"))
    (func,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_parse_statement"]
    assert _positional_reads(func) == []
    # the walk does see what it looks for
    probe = ast.parse("def f(args, col):\n    _, a = args\n    return col[4], args[1:3], args[-1]")
    assert _positional_reads(probe.body[0]) == ["_, a = args", "col[4]", "args[1:3]", "args[-1]"]
