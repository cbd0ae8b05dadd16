"""Line-oriented pulse-sequence language.

One statement per line; ``#`` starts a comment and blank lines are ignored.

    init (fock M N | coherent RE IM RE IM | cat RE IM (even|odd) (c|r)) nmax INT
    bs1 ANGLE | bs2 ANGLE | ps (c|r) ANGLE | cphase (c|r) ANGLE
    mz ANGLE | jcm (single|two) COUPLING T0 T1 NSAMPLES | direct (c|r) CHI_T
    report

Angles are decimal radians or rational multiples of pi: ``pi``, ``pi/2``,
``3*pi/4``, ``-pi/3`` and so on (integer numerator and denominator).  All
other numbers are plain decimal literals.  Exactly one ``init`` statement is
required and it must come first; verbs and keywords are case insensitive.
The argument slots of each verb and of each ``init`` state kind live in one
table, ``_GRAMMAR``, the one home of the grammar above, keyword ``nmax``
included.  A parsed ``Statement`` is its verb and ``args``, a tuple of one
value per slot in grammar order: ``parse`` walks the table and
``format_program`` writes the verb and each value back in that order.

``execute`` threads a motional state through the statements.  ``cphase``
acts with ion 2 implicitly prepared in |g>, which turns the conditional
phase with angle chi_t into the plain phase shifter at chi_t / 2.  ``mz``
is the splitter, phase, splitter interferometer.  ``bs1``, ``bs2``, ``ps``,
``cphase`` and ``mz`` are passive, each a 2x2 unitary on the mode
operators: a run of them folds into one operator (the product of the
2x2 matrices), applied with at most one rotation before the next ``jcm``,
``direct`` or ``report`` and at the end, so every record sees the state it
would see statement by statement.  ``jcm`` and ``direct`` emit probe
records without changing the state; ``report`` records the number
distributions and the Schwinger expectations at that point.
Formatting is canonical (lowercase, single spaces) and parsing a formatted
program reproduces the statement structure exactly; comments are not
preserved.
"""

import json
import math
import re
from typing import NamedTuple

import numpy as np

from . import interferometer
from .detection import _KINDS, _require_samples, direct_mean_phonon, signal
from .fockspace import (
    WEIGHT_FLOOR,
    MotionalState,
    Truncation,
    _MODES,
    _PARITIES,
    _read_int,
    _Record,
    expect,
    make_cat,
    make_coherent,
    make_fock,
    number_distributions,
)
from .operators import UnitaryOperator, apply, beam_splitter, phase_shifter


class ParseError(Exception):
    """Rejection with the line and column of the offending token."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ExecutionError(Exception):
    """Runtime failure of a parsed program, tagged with the statement's line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_PI_RE = re.compile(r"^([+-]?)(?:(\d+)\*)?pi(?:/(\d+))?$", re.IGNORECASE)
_INT_RE = re.compile(r"^[+-]?\d+$")


class Angle(NamedTuple):
    """Angle literal; keeps the rational-pi spelling when one was used."""

    value: float
    pi_num: int | None = None
    pi_den: int = 1

    @classmethod
    def from_pi(cls, num: int, den: int) -> "Angle":
        if den <= 0:
            raise ValueError("denominator must be positive")
        return cls(num * math.pi / den, num, den)

    def text(self) -> str:
        if self.pi_num is None:
            return repr(self.value)
        sign = "-" if self.pi_num < 0 else ""
        mag = abs(self.pi_num)
        head = f"{sign}pi" if mag == 1 else f"{sign}{mag}*pi"
        return head if self.pi_den == 1 else f"{head}/{self.pi_den}"


def parse_angle(text: str) -> Angle:
    """Angle literal: decimal radians or a rational multiple of pi.

    Raises ValueError for anything else, a zero denominator, or a value
    that is not finite.
    """
    m = _PI_RE.match(text)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        num = sign * (_read_int(m.group(2), "pi numerator") if m.group(2) else 1)
        den = _read_int(m.group(3), "pi denominator") if m.group(3) else 1
        if den == 0:
            raise ValueError("angle denominator must be nonzero")
        try:
            return Angle.from_pi(num, den)
        except OverflowError:
            raise ValueError(f"angle {text!r} is out of range") from None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"expected an angle (decimal radians or a pi fraction), got {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError("angles must be finite")
    return Angle(value)


class Statement(NamedTuple):
    verb: str
    args: tuple  # one value per ``_GRAMMAR`` slot, in order


class PulseProgram(_Record):
    __slots__ = ("statements", "lines")  # lines: the source line of each statement


class _Token(_Record):
    __slots__ = ("text", "line", "col")  # col is 1-based

    @property
    def end(self) -> int:
        return self.col + len(self.text)


# The argument grammar, its one home: each verb, and each ``init`` state
# kind, to its ordered slots (key, kind).  A statement's ``args`` holds one
# value per slot, in order; an ``init`` reads its state kind first, then
# that kind's slots.  The key names the slot in messages.
_NMAX = (("nmax", ("nmax",)), ("nmax", int))
_GRAMMAR = {
    "init": {
        "fock": (("M", int), ("N", int), *_NMAX),
        "coherent": (
            ("alpha real part", float), ("alpha imaginary part", float),
            ("beta real part", float), ("beta imaginary part", float), *_NMAX,
        ),
        "cat": (
            ("alpha real part", float), ("alpha imaginary part", float),
            ("parity", _PARITIES), ("mode", _MODES), *_NMAX,
        ),
    },
    "bs1": (("theta", Angle),),
    "bs2": (("theta", Angle),),
    "ps": (("mode", _MODES), ("angle", Angle)),
    "cphase": (("mode", _MODES), ("angle", Angle)),
    "mz": (("phi", Angle),),
    "jcm": (("kind", _KINDS), ("coupling", float), ("t0", float), ("t1", float), ("nsamples", int)),
    "direct": (("mode", _MODES), ("chi_t", float)),
    "report": (),
}


def _wanted(key: str, kind) -> str:
    """What the slot ``key`` of ``kind`` asks for, as a missing slot names it."""
    if isinstance(kind, tuple):
        return f"the keyword {kind[0]!r}" if len(kind) == 1 else "one of " + "/".join(kind)
    return "an angle" if kind is Angle else key


def _read(tok: _Token, key: str, kind):
    """The token as the slot ``key`` of ``kind``: a tuple of keywords,
    ``Angle``, ``int`` or ``float``."""
    text = tok.text
    if isinstance(kind, tuple):
        if text.lower() in kind:
            return text.lower()
        message = f"expected {_wanted(key, kind).removeprefix('the ')}, got {text!r}"
    elif kind is Angle:
        try:
            return parse_angle(text)
        except ValueError as exc:
            message = str(exc)
    elif kind is int:
        if _INT_RE.match(text):
            try:
                return _read_int(text, key)
            except ValueError as exc:
                message = str(exc)
        else:
            message = f"expected an integer {key}, got {text!r}"
    else:
        try:
            value = float(text)
        except ValueError:
            message = f"expected a number for {key}, got {text!r}"
        else:
            if math.isfinite(value):
                return value
            message = f"{key} must be finite, got {text!r}"
    raise ParseError(tok.line, tok.col, message)


def _parse_statement(verb: str, words: list[_Token], line: int, verb_end: int) -> Statement:
    """The statement of ``verb`` from its argument words; a missing first
    word is reported at column ``verb_end``."""
    grammar = _GRAMMAR[verb]
    slots = [("state", tuple(grammar))] if verb == "init" else list(grammar)
    args = []
    for i, (key, kind) in enumerate(slots):  # the loop also walks slots appended below
        if i == len(words):
            col = words[-1].end if words else verb_end
            raise ParseError(line, col, f"'{verb}' is missing {_wanted(key, kind)}")
        args.append(_read(words[i], key, kind))
        if key == "state":
            slots += grammar[args[0]]
    col = [w.col for w in words]
    if verb == "init":
        nmax = args[-1]
        if nmax < 0:
            raise ParseError(line, col[len(args) - 1], f"nmax must be >= 0, got {nmax}")
        if args[0] == "fock":
            m, n = args[1:3]
            if m < 0 or n < 0:
                raise ParseError(line, col[1 if m < 0 else 2], "fock indices must be >= 0")
            if m + n > nmax:
                raise ParseError(
                    line, col[1],
                    f"fock state ({m}, {n}) exceeds the truncation: {m} + {n} > nmax = {nmax}",
                )
    elif verb == "jcm":
        _, coupling, t0, t1, nsamples = args
        if not coupling > 0:
            raise ParseError(line, col[1], f"coupling must be positive, got {coupling}")
        if nsamples < 2:
            raise ParseError(line, col[4], f"nsamples must be >= 2, got {nsamples}")
        if not t1 > t0:
            raise ParseError(line, col[3], f"t1 must exceed t0, got {t0} .. {t1}")
        if not math.isfinite(t1 - t0):
            raise ParseError(line, col[2], f"time range t1 - t0 must be finite, got {t0} .. {t1}")
    if len(words) > len(args):
        tok = words[len(args)]
        raise ParseError(line, tok.col, f"unexpected trailing argument {tok.text!r} after '{verb}'")
    return Statement(verb, tuple(args))


def _tokenize(text: str) -> list[list[_Token]]:
    lines: list[list[_Token]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        body = raw if hash_at < 0 else raw[:hash_at]
        toks = [
            _Token(m.group(0), lineno, m.start() + 1)
            for m in re.finditer(r"\S+", body)
        ]
        if toks:
            lines.append(toks)
    return lines


def parse(text: str) -> PulseProgram:
    """Parse program text; raises ParseError with line and column on failure."""
    statements: list[Statement] = []
    lines: list[int] = []
    for verb_tok, *words in _tokenize(text):
        line, verb = verb_tok.line, verb_tok.text.lower()
        if verb not in _GRAMMAR:
            raise ParseError(line, verb_tok.col, f"unknown verb {verb_tok.text!r}")
        stmt = _parse_statement(verb, words, line, verb_tok.end)
        if verb == "init" and statements:
            raise ParseError(line, verb_tok.col, "'init' must be the first statement")
        if verb != "init" and not statements:
            raise ParseError(line, verb_tok.col, "the program must start with 'init'")
        statements.append(stmt)
        lines.append(line)
    if not statements:
        raise ParseError(1, 1, "empty program: missing 'init'")
    return PulseProgram(tuple(statements), tuple(lines))


def parse_state_spec(spec: str) -> MotionalState:
    """Build the initial state from the init clause alone (CLI state-spec),
    its words read as the ``init`` arguments: errors are located in the
    spec as given, an empty spec at 1:1."""
    words, *rest = _tokenize(spec) or [[]]
    line = words[0].line if words else 1
    stmt = _parse_statement("init", words, line, 1)
    if rest:
        tok = rest[0][0]
        raise ParseError(tok.line, tok.col, "state spec must be a single init clause")
    return _build_initial_state(stmt.args, line)


def _build_initial_state(args: tuple, line: int) -> MotionalState:
    kind, *values, _, nmax = args
    trunc = Truncation(nmax)
    try:
        if kind == "fock":
            return make_fock(*values, trunc)
        alpha = complex(*values[:2])
        if kind == "coherent":
            return make_coherent(alpha, complex(*values[2:]), trunc)
        return make_cat(alpha, *values[2:], trunc)  # values[2:]: parity, mode
    except ValueError as exc:
        raise ExecutionError(line, str(exc)) from exc


class ReportRecord(_Record):
    __slots__ = ("index", "distribution", "jx", "jy")

    def to_json(self) -> str:
        """Moments, dense marginals and the joint rows [m, n, p], in
        (total, m) order, of every p that is not rounding noise (the one
        floor rule, ``fockspace.WEIGHT_FLOOR``).  ``jz`` and ``mean_jz`` are
        both the distribution's ``mean_jz``."""
        d = self.distribution
        ms, ns = d.trunc.mode_numbers()
        keep = d.p > WEIGHT_FLOOR**2
        return json.dumps(
            {
                "kind": "report",
                "index": self.index,
                "jx": self.jx,
                "jy": self.jy,
                "jz": d.mean_jz,
                "mean_jz": d.mean_jz,
                "p_m": d.p_m.tolist(),
                "p_n": d.p_n.tolist(),
                "p": list(zip(ms[keep].tolist(), ns[keep].tolist(), d.p[keep].tolist())),
            }
        )

    def to_csv(self) -> str:
        return self.distribution.to_csv()


class TraceRecord(_Record):
    __slots__ = ("index", "trace")


class DirectRecord(_Record):
    __slots__ = ("index", "estimate")


class ExecutionResult(_Record):
    __slots__ = ("final_state", "records")


def _passive(stmt: Statement, trunc: Truncation) -> UnitaryOperator | None:
    """The statement's passive operator, or None if it is not passive."""
    verb, args = stmt
    if verb in ("bs1", "bs2"):  # args: theta
        return beam_splitter("b" + verb[2], args[0].value, trunc)
    if verb == "ps":  # args: mode, angle
        return phase_shifter(args[0], args[1].value, trunc)
    if verb == "cphase":  # ion 2 implicitly in |g>: phase shift at chi_t / 2
        return phase_shifter(args[0], args[1].value / 2.0, trunc)
    if verb == "mz":  # args: phi
        return interferometer.mz_unitary(args[0].value, trunc)
    return None


def _apply_run(run: UnitaryOperator | None, state: MotionalState, line: int) -> MotionalState:
    """Apply a folded run of passive statements; a failure names its first line."""
    if run is None:
        return state
    try:
        return apply(run, state)
    except ValueError as exc:
        raise ExecutionError(line, str(exc)) from exc


def execute(program: PulseProgram) -> ExecutionResult:
    """Run a parsed program; deterministic for identical programs."""
    records: list = []
    state: MotionalState | None = None
    run: UnitaryOperator | None = None  # the pending passive statements, folded
    run_line = 0
    for idx, (stmt, line) in enumerate(zip(program.statements, program.lines)):
        try:
            if stmt.verb == "init":
                state = _build_initial_state(stmt.args, line)
            elif (u := _passive(stmt, state.trunc)) is not None:
                run, run_line = (u, line) if run is None else (u @ run, run_line)
            else:
                state, run = _apply_run(run, state, run_line), None
                if stmt.verb == "jcm":
                    kind, coupling, t0, t1, nsamples = stmt.args
                    _require_samples(nsamples)
                    trace = signal(state, coupling, np.linspace(t0, t1, nsamples), kind)
                    records.append(TraceRecord(idx, trace))
                elif stmt.verb == "direct":
                    mode, chi_t = stmt.args
                    est = direct_mean_phonon(state, chi_t, mode)
                    records.append(DirectRecord(idx, est))
                else:  # report, the one verb left that the parser accepts
                    moments = (expect(state, k) for k in ("jx", "jy"))
                    records.append(ReportRecord(idx, number_distributions(state), *moments))
        except ValueError as exc:
            raise ExecutionError(line, str(exc)) from exc
    return ExecutionResult(_apply_run(run, state, run_line), tuple(records))


def _text(value) -> str:
    """An argument's canonical text."""
    return value.text() if isinstance(value, Angle) else str(value)


def format_program(program: PulseProgram) -> str:
    """Canonical text: lowercase verbs, single spaces, one statement per line.

    Parsing the result reproduces the statement structure; comments and
    original spacing are not preserved.
    """
    return "\n".join(" ".join([s.verb, *map(_text, s.args)]) for s in program.statements) + "\n"
